"""Tests for message demultiplexing."""

import pytest

from repro.net import FixedLatency, MessageDemux, Network
from repro.sim import Scheduler


def test_longest_prefix_wins():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("rpc.", lambda m: got.append(("general", m.kind)))
    demux.route("rpc.special", lambda m: got.append(("special", m.kind)))
    a.send("b", "rpc.request", None)
    a.send("b", "rpc.special.thing", None)
    s.run()
    assert got == [("general", "rpc.request"), ("special", "rpc.special.thing")]


def test_unrouted_kind_dropped():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("known.", got.append)
    a.send("b", "unknown.kind", None)
    s.run()
    assert got == []


def test_duplicate_route_rejected():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    demux = MessageDemux(net.attach("n"))
    demux.route("x.", lambda m: None)
    with pytest.raises(ValueError):
        demux.route("x.", lambda m: None)


def test_longer_prefix_registered_after_first_dispatch_wins_from_then_on():
    """A kind's handler is resolved once and remembered; ``route`` must
    forget what it remembered, or a protocol registered later would
    never see its own kinds."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("rpc.", lambda m: got.append(("general", m.payload)))
    for payload in (1, 2):  # the second rides the remembered handler
        a.send("b", "rpc.special.thing", payload)
    s.run()
    demux.route("rpc.special", lambda m: got.append(("special", m.payload)))
    a.send("b", "rpc.special.thing", 3)
    a.send("b", "rpc.request", 4)
    s.run()
    assert got == [("general", 1), ("general", 2), ("special", 3),
                   ("general", 4)]


def test_unrouted_kind_stays_dropped_until_routed():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("known.", got.append)
    for _ in range(2):  # the second finds the remembered "no route"
        a.send("b", "unknown.kind", None)
    s.run()
    assert got == []
    demux.route("unknown.", lambda m: got.append(m.kind))
    a.send("b", "unknown.kind", None)
    s.run()
    assert got == ["unknown.kind"]
