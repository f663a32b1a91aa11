"""Unit tests for the coherence plane's server-side soft state.

The :class:`WriteHotDetector` (windowed write-rate EWMA with a
hysteresis mode flip) and the :class:`LesseeRegistry` (TTL-bounded
lessee table), including the export/install merge semantics the
reshard handover relies on: fresher-sample-wins for the detector,
latest-expiry-wins for the registry.
"""

import pytest

from repro.naming.coherence import (
    PULL_MODE,
    PUSH_MODE,
    LesseeRegistry,
    WriteHotDetector,
    group_of,
)


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_group_name_is_per_owner():
    assert group_of("a1") == "coh:a1"
    assert group_of("a1") != group_of("a2")


# -- WriteHotDetector --------------------------------------------------------


def make_detector(clock, **kwargs):
    kwargs.setdefault("hot_rate", 1.0)
    kwargs.setdefault("window", 10.0)
    return WriteHotDetector(clock, **kwargs)


@pytest.mark.parametrize("bad", [
    {"hot_rate": 0.0},
    {"hot_rate": -1.0},
    {"window": 0.0},
    {"smoothing": 0.0},
    {"smoothing": 1.5},
    {"cool_fraction": 0.0},
    {"cool_fraction": 1.0},
])
def test_detector_rejects_degenerate_parameters(bad):
    kwargs = {"hot_rate": 1.0, "window": 10.0,
              "smoothing": 0.3, "cool_fraction": 0.5}
    kwargs.update(bad)
    with pytest.raises(ValueError):
        WriteHotDetector(Clock(), **kwargs)


def test_single_write_seeds_cold():
    clock = Clock()
    detector = make_detector(clock)
    detector.record_write("u")
    # Seeded at one write per window: a lone write can never flip a
    # sane threshold.
    assert detector.effective_rate("u") == pytest.approx(0.1)
    assert detector.mode_of("u") == PULL_MODE


def test_unknown_uid_reads_as_silent():
    detector = make_detector(Clock())
    assert detector.effective_rate("never-seen") == 0.0
    assert detector.mode_of("never-seen") == PULL_MODE


def test_rapid_writes_flip_to_push():
    clock = Clock()
    detector = make_detector(clock)
    for _ in range(5):
        detector.record_write("u")
        clock.now += 0.2  # five writes per second >> hot_rate of one
    assert detector.effective_rate("u") > detector.hot_rate
    assert detector.mode_of("u") == PUSH_MODE


def test_slow_writes_never_flip():
    clock = Clock()
    detector = make_detector(clock)
    for _ in range(30):
        detector.record_write("u")
        clock.now += 2.0  # half the hot rate, forever
    assert detector.mode_of("u") == PULL_MODE


def test_same_instant_burst_is_capped_not_infinite():
    clock = Clock()
    detector = make_detector(clock)
    detector.record_write("u")
    detector.record_write("u")  # zero interarrival gap
    rate = detector.effective_rate("u")
    assert rate == pytest.approx(0.3 * (1.0 / 0.3) + 0.7 * 0.1)
    assert detector.mode_of("u") == PUSH_MODE


def test_hysteresis_holds_push_until_the_cool_threshold():
    clock = Clock()
    detector = make_detector(clock)
    detector.record_write("u")
    clock.now = 0.2
    detector.record_write("u")  # ewma ~1.57, above hot_rate
    assert detector.mode_of("u") == PUSH_MODE
    # Idle decay: still above cool_fraction * hot_rate at t=8...
    clock.now = 8.0
    assert 0.5 < detector.effective_rate("u") < 1.0
    assert detector.mode_of("u") == PUSH_MODE  # hysteresis holds
    # ...and below it at t=12, where the entry finally cools to pull.
    clock.now = 12.0
    assert detector.effective_rate("u") < 0.5
    assert detector.mode_of("u") == PULL_MODE
    assert detector.mode_of("u") == PULL_MODE  # and stays there


def test_forget_and_reset_drop_all_trace():
    clock = Clock()
    detector = make_detector(clock)
    for uid in ("a", "b"):
        detector.record_write(uid)
        clock.now += 0.1
        detector.record_write(uid)
    assert detector.mode_of("a") == PUSH_MODE
    detector.forget("a")
    assert detector.effective_rate("a") == 0.0
    assert detector.mode_of("a") == PULL_MODE
    detector.reset()
    assert detector.effective_rate("b") == 0.0


def test_export_names_only_observed_uids():
    detector = make_detector(Clock())
    detector.record_write("seen")
    payload = detector.export_state(["seen", "never"])
    assert set(payload) == {"seen"}
    rate, last, pushed = payload["seen"]
    assert rate == pytest.approx(0.1) and last == 0.0 and not pushed


def test_install_adopts_fresher_samples_and_keeps_newer_ones():
    clock = Clock()
    hot = make_detector(clock)
    cold = make_detector(clock)
    cold.record_write("u")  # one cold sample at t=0
    clock.now = 0.2
    hot.record_write("u")
    clock.now = 0.4
    hot.record_write("u")  # hot sample at t=0.4
    assert hot.mode_of("u") == PUSH_MODE

    stale = cold.export_state(["u"])
    fresh = hot.export_state(["u"])
    # Fresher sample wins: the cold side adopts the handover...
    cold.install_state(fresh)
    assert cold.effective_rate("u") == hot.effective_rate("u")
    assert cold.mode_of("u") == PUSH_MODE
    # ...and the hot side refuses the stale one.
    hot.install_state(stale)
    assert hot.mode_of("u") == PUSH_MODE
    assert hot.effective_rate("u") == cold.effective_rate("u")


def test_install_can_demote_a_pushed_entry():
    clock = Clock()
    a = make_detector(clock)
    b = make_detector(clock)
    a.record_write("u")
    clock.now = 0.1
    a.record_write("u")
    assert a.mode_of("u") == PUSH_MODE
    clock.now = 0.2
    b.record_write("u")  # fresher, but cold (seed sample)
    a.install_state(b.export_state(["u"]))
    assert a.mode_of("u") == PULL_MODE


# -- LesseeRegistry ----------------------------------------------------------


def test_registry_rejects_degenerate_ttl():
    with pytest.raises(ValueError):
        LesseeRegistry(Clock(), ttl=0.0)


def test_register_and_enumerate_sorted():
    registry = LesseeRegistry(Clock(), ttl=5.0)
    registry.register("u", "c2")
    registry.register("u", "c1")
    assert registry.lessees("u") == ["c1", "c2"]
    assert registry.all_clients() == {"c1", "c2"}


def test_registrations_age_out_at_the_ttl():
    clock = Clock()
    registry = LesseeRegistry(clock, ttl=5.0)
    registry.register("u", "c1")
    clock.now = 4.9
    assert registry.lessees("u") == ["c1"]
    clock.now = 5.0  # expiry is exclusive: expired exactly at now
    assert registry.lessees("u") == []
    assert registry.all_clients() == set()


def test_reregistration_extends_the_expiry():
    clock = Clock()
    registry = LesseeRegistry(clock, ttl=5.0)
    registry.register("u", "c1")
    clock.now = 3.0
    registry.register("u", "c1")  # renewed: expires at 8, not 5
    clock.now = 6.0
    assert registry.lessees("u") == ["c1"]


def test_forget_and_clear():
    registry = LesseeRegistry(Clock(), ttl=5.0)
    registry.register("a", "c1")
    registry.register("b", "c2")
    registry.forget("a")
    assert registry.lessees("a") == []
    assert registry.lessees("b") == ["c2"]
    registry.clear()
    assert registry.all_clients() == set()


def test_export_covers_only_live_named_registrations():
    clock = Clock()
    registry = LesseeRegistry(clock, ttl=5.0)
    registry.register("moved", "c1")
    registry.register("stays", "c2")
    clock.now = 1.0
    registry.register("moved", "c3")
    payload = registry.export_state(["moved", "never"])
    assert set(payload) == {"moved"}
    assert payload["moved"] == {"c1": 5.0, "c3": 6.0}


def test_install_merges_latest_expiry_wins():
    clock = Clock()
    old_owner = LesseeRegistry(clock, ttl=5.0)
    new_owner = LesseeRegistry(clock, ttl=5.0)
    old_owner.register("u", "c1")      # expires at 5
    clock.now = 2.0
    new_owner.register("u", "c1")      # expires at 7: newer, must win
    new_owner.register("u", "c2")
    new_owner.install_state(old_owner.export_state(["u"]))
    clock.now = 6.0
    # c1's handed-over (older) expiry did not clobber the newer one.
    assert new_owner.lessees("u") == ["c1", "c2"]
    # And the reverse direction adopts the newer expiry wholesale.
    clock.now = 2.0
    old_owner.install_state({"u": {"c1": 7.0, "c2": 7.0}})
    clock.now = 6.0
    assert old_owner.lessees("u") == ["c1", "c2"]
