"""Tests for the simulated LAN."""

import pytest

from repro.net import FixedLatency, Network
from repro.sim import Scheduler, SeededRng


def make_net(latency=0.01, **kwargs):
    s = Scheduler()
    return s, Network(s, FixedLatency(latency), **kwargs)


def test_delivery_applies_latency():
    s, net = make_net(0.5)
    a, b = net.attach("a"), net.attach("b")
    received = []
    b.on_message = lambda m: received.append((s.now, m.payload))
    a.send("b", "k", "hello")
    s.run()
    assert received == [(0.5, "hello")]


def test_duplicate_interface_name_rejected():
    _, net = make_net()
    net.attach("a")
    with pytest.raises(ValueError):
        net.attach("a")


def test_down_sender_sends_nothing():
    s, net = make_net()
    a, b = net.attach("a"), net.attach("b")
    received = []
    b.on_message = received.append
    a.up = False
    assert a.send("b", "k", "x") is None
    s.run()
    assert received == []


def test_down_receiver_drops_message():
    s, net = make_net()
    a, b = net.attach("a"), net.attach("b")
    received = []
    b.on_message = received.append
    a.send("b", "k", "x")
    b.up = False
    s.run()
    assert received == []
    assert net.messages_dropped == 1


def test_receiver_crashing_mid_flight_drops():
    s, net = make_net(1.0)
    a, b = net.attach("a"), net.attach("b")
    received = []
    b.on_message = received.append
    a.send("b", "k", "x")
    s.schedule(0.5, lambda: setattr(b, "up", False))
    s.run()
    assert received == []


def test_unknown_target_dropped_silently():
    s, net = make_net()
    a = net.attach("a")
    a.send("ghost", "k", "x")
    s.run()
    assert net.messages_dropped == 1


def test_partition_blocks_cross_group_traffic():
    s, net = make_net()
    a, b, c = net.attach("a"), net.attach("b"), net.attach("c")
    got = {"b": [], "c": []}
    b.on_message = lambda m: got["b"].append(m.payload)
    c.on_message = lambda m: got["c"].append(m.payload)
    net.partition({"a", "b"}, {"c"})
    a.send("b", "k", "same-side")
    a.send("c", "k", "cross")
    s.run()
    assert got["b"] == ["same-side"]
    assert got["c"] == []


def test_heal_restores_traffic():
    s, net = make_net()
    a, b = net.attach("a"), net.attach("b")
    got = []
    b.on_message = lambda m: got.append(m.payload)
    net.partition({"a"}, {"b"})
    a.send("b", "k", "lost")
    s.run()
    net.heal()
    a.send("b", "k", "found")
    s.run()
    assert got == ["found"]


def test_unnamed_interfaces_form_implicit_group():
    s, net = make_net()
    net.attach("a")
    net.attach("x")
    net.attach("y")
    net.partition({"a"})
    assert net.reachable("x", "y")
    assert not net.reachable("a", "x")


def test_partition_with_unknown_name_rejected():
    _, net = make_net()
    net.attach("a")
    with pytest.raises(ValueError):
        net.partition({"a", "ghost"})


def test_drop_rules_target_specific_messages():
    s, net = make_net()
    a, b = net.attach("a"), net.attach("b")
    got = []
    b.on_message = lambda m: got.append(m.payload)
    net.add_drop_rule(lambda m: m.payload == "evil")
    a.send("b", "k", "good")
    a.send("b", "k", "evil")
    s.run()
    assert got == ["good"]
    net.clear_drop_rules()
    a.send("b", "k", "evil")
    s.run()
    assert got == ["good", "evil"]


def test_probabilistic_drop_is_seeded():
    def run(seed):
        s = Scheduler()
        net = Network(s, FixedLatency(0.01), drop_probability=0.5,
                      rng=SeededRng(seed))
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.on_message = lambda m: got.append(m.payload)
        for i in range(100):
            a.send("b", "k", i)
        s.run()
        return got

    assert run(5) == run(5)
    assert 20 < len(run(5)) < 80


def test_every_send_consumes_exactly_one_draw_of_the_network_stream():
    """Gray-drop reproducibility rides on this: the ``network`` stream
    is drawn once per transmitted message even when nothing can drop,
    so a later ``degrade(drop=...)`` sees the same draws whatever the
    traffic before it was made of."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01), drop_probability=0.0,
                  rng=SeededRng(5))
    a, b = net.attach("a"), net.attach("b")
    b.on_message = lambda m: None
    for i in range(37):
        a.send("b", "k", i)
    s.run()
    assert net.messages_delivered == 37 and net.messages_dropped == 0
    untouched = SeededRng(5).substream("network")
    for _ in range(37):
        untouched.random()
    assert net._rng.random() == untouched.random()


def test_drop_probability_out_of_range_rejected():
    with pytest.raises(ValueError):
        Network(Scheduler(), FixedLatency(), drop_probability=1.5,
                rng=SeededRng(1))


def test_drop_probability_requires_rng():
    with pytest.raises(ValueError):
        Network(Scheduler(), FixedLatency(), drop_probability=0.1)


def test_message_counters():
    s, net = make_net()
    a, b = net.attach("a"), net.attach("b")
    b.on_message = lambda m: None
    a.send("b", "k", 1)
    a.send("b", "k", 2)
    s.run()
    assert net.messages_sent == 2
    assert net.messages_delivered == 2
    assert a.sent_count == 2
    assert b.received_count == 2
