"""Tests for the gray-failure peer-health tracker."""

import pytest

from repro.naming.peer_health import PeerHealthTracker
from tests.naming.test_replica_io import (
    fill, hedged, make_read_world, warm_tracker)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_tracker(clock=None, **kwargs):
    return PeerHealthTracker(clock or FakeClock(), **kwargs)


def feed_baseline(tracker, peers, latency=0.01, rounds=10):
    for _ in range(rounds):
        for peer in peers:
            tracker.observe(peer, latency)


def test_validates_parameters():
    clock = FakeClock()
    with pytest.raises(ValueError):
        PeerHealthTracker(clock, alpha=0.0)
    with pytest.raises(ValueError):
        PeerHealthTracker(clock, timeout_threshold=0)
    with pytest.raises(ValueError):
        PeerHealthTracker(clock, latency_factor=1.0)
    with pytest.raises(ValueError):
        PeerHealthTracker(clock, probation=0.0)


def test_timeout_streak_demotes():
    tracker = make_tracker(timeout_threshold=2)
    tracker.timeout("b")
    assert not tracker.is_gray("b")  # one timeout is routine
    tracker.timeout("b")
    assert tracker.is_gray("b")
    assert tracker.demotions == 1


def test_success_resets_the_streak():
    tracker = make_tracker(timeout_threshold=2)
    tracker.timeout("b")
    tracker.observe("b", 0.01)
    tracker.timeout("b")
    assert not tracker.is_gray("b")


def test_latency_outlier_demotes_against_the_cohort():
    tracker = make_tracker(min_samples=8, latency_factor=4.0)
    feed_baseline(tracker, ["a", "b"], latency=0.01)
    for _ in range(10):
        tracker.observe("c", 0.5)  # 50x the healthy cohort
    assert tracker.is_gray("c")
    assert tracker.gray_peers() == ["c"]


def test_no_demotion_before_min_samples():
    tracker = make_tracker(min_samples=8)
    feed_baseline(tracker, ["a", "b"], latency=0.01)
    for _ in range(7):
        tracker.observe("c", 1.0)
    assert not tracker.is_gray("c")


def test_reorder_moves_gray_to_the_back_stably():
    tracker = make_tracker(timeout_threshold=1)
    tracker.timeout("a")
    assert tracker.reorder(["a", "b", "c"]) == ["b", "c", "a"]
    # All-healthy order is returned unchanged (same contents).
    assert tracker.reorder(["b", "c"]) == ["b", "c"]


def test_probation_trial_and_redemption():
    clock = FakeClock()
    tracker = make_tracker(clock=clock, timeout_threshold=1, probation=10.0)
    feed_baseline(tracker, ["a", "b", "x"], latency=0.01)
    tracker.timeout("x")
    assert tracker.is_gray("x")
    clock.now = 11.0  # probation over: due a trial read
    assert not tracker.is_gray("x")
    assert tracker.reorder(["x", "a"]) == ["x", "a"]
    tracker.observe("x", 0.01)  # the trial read succeeds at normal speed
    assert not tracker.is_gray("x")
    clock.now = 50.0
    assert not tracker.is_gray("x")


def test_failed_trial_re_demotes():
    clock = FakeClock()
    tracker = make_tracker(clock=clock, timeout_threshold=1, probation=10.0,
                           min_samples=4, latency_factor=4.0)
    feed_baseline(tracker, ["a", "b"], latency=0.01)
    for _ in range(4):
        tracker.observe("x", 1.0)
    assert tracker.is_gray("x")
    clock.now = 20.0
    tracker.observe("x", 1.0)  # trial read: still crawling
    assert tracker.is_gray("x")


def test_demotions_counter_counts_transitions_only():
    tracker = make_tracker(timeout_threshold=1)
    tracker.timeout("a")
    tracker.timeout("a")
    tracker.timeout("a")
    assert tracker.demotions == 1


def test_hedge_after_waits_for_min_samples_then_scales_the_ewma():
    tracker = make_tracker(min_samples=3, latency_factor=4.0, alpha=0.5)
    for _ in range(2):
        tracker.observe("a", 0.01)
        assert tracker.hedge_after("a") is None
    tracker.observe("a", 0.03)  # EWMA 0.01 + 0.5 * (0.03 - 0.01)
    assert tracker.hedge_after("a") == pytest.approx(4.0 * 0.02)
    assert tracker.hedge_after("never-seen") is None


def test_two_lost_races_demote_a_dark_peer():
    """A hedged read returns before the dark primary's request times
    out; that late timeout still counts toward the streak, so after two
    lost races reads skip the primary and pay no hedge delay."""
    health = warm_tracker(timeout_threshold=2)
    s, net, dbs, agents, io, order = make_read_world(health)
    agents[order[0]]._nic.up = False
    for _race in range(2):
        result, _took = fill(s, io)
        assert result is not None
        assert not health.is_gray(order[0])  # its timeout is still due
        s.run(until=s.now + 1.0)
    assert health.is_gray(order[0])
    result, took = fill(s, io)
    assert result is not None
    assert took == pytest.approx(0.02)  # straight to the replica: one RTT
    assert hedged(io) == 2
