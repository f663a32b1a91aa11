"""Tests for measurement instruments."""

import enum
import math
from typing import Any, NamedTuple

import pytest
from hypothesis import given, strategies as st

from repro.net.rpc import RpcReply, RpcRequest
from repro.sim import MetricsRegistry
from repro.sim.metrics import estimate_size, wire_size


def test_counter_increments():
    m = MetricsRegistry()
    m.counter("x").increment()
    m.counter("x").increment(4)
    assert m.counter_value("x") == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("x").increment(-1)


def test_counter_value_of_untouched_is_zero():
    assert MetricsRegistry().counter_value("nope") == 0


def test_gauge_moves_both_ways():
    g = MetricsRegistry().gauge("g")
    g.set(10)
    g.add(-3)
    assert g.value == 7


def test_histogram_statistics():
    h = MetricsRegistry().histogram("h")
    for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
        h.observe(v)
    assert h.count == 5
    assert h.mean == 3.0
    assert h.minimum == 1.0
    assert h.maximum == 5.0
    assert h.percentile(50) == 3.0
    assert h.percentile(100) == 5.0


def test_histogram_empty_stats_are_nan():
    h = MetricsRegistry().histogram("h")
    assert math.isnan(h.mean)
    assert math.isnan(h.percentile(50))


def test_histogram_percentile_bounds():
    h = MetricsRegistry().histogram("h")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_timeseries_time_weighted_mean():
    ts = MetricsRegistry().timeseries("availability")
    ts.record(0.0, 1.0)   # up
    ts.record(10.0, 0.0)  # down
    ts.record(15.0, 1.0)  # up again
    # 10 up + 5 down + 5 up over [0, 20] -> 15/20
    assert ts.time_weighted_mean(20.0) == pytest.approx(0.75)


def test_timeseries_values_between():
    ts = MetricsRegistry().timeseries("x")
    for t in range(10):
        ts.record(float(t), float(t * t))
    assert ts.values_between(2.0, 4.0) == [4.0, 9.0, 16.0]


def test_snapshot_contains_all_instruments():
    m = MetricsRegistry()
    m.counter("c").increment()
    m.gauge("g").set(2.5)
    m.histogram("h").observe(1.0)
    m.timeseries("t").record(0.0, 1.0)
    snap = m.snapshot()
    assert snap["c"] == 1
    assert snap["g"] == 2.5
    assert snap["h"]["count"] == 1
    assert snap["t"] == [(0.0, 1.0)]


def test_registry_returns_same_instrument():
    m = MetricsRegistry()
    assert m.counter("a") is m.counter("a")
    assert m.histogram("b") is m.histogram("b")


def test_wire_size_is_deterministic():
    from repro.sim.metrics import wire_size
    payload = {"method": "get_server", "args": ("sys:1",)}
    assert wire_size(payload) == wire_size(dict(payload))
    assert wire_size(payload) == len(repr(payload))


def test_plane_traffic_counters_land_in_the_snapshot():
    from repro.sim.metrics import MetricsRegistry
    m = MetricsRegistry()
    client = m.plane_traffic("alpha", "client")
    sync = m.plane_traffic("alpha", "sync")
    client.record_sent("req")
    client.record_received("rep")
    sync.record_sent("probe")
    snap = m.snapshot()
    from repro.sim.metrics import estimate_size
    assert snap["traffic.alpha.client.rpcs_out"] == 1
    assert snap["traffic.alpha.client.rpcs_in"] == 1
    assert snap["traffic.alpha.sync.rpcs_out"] == 1
    assert snap["traffic.alpha.client.bytes_out"] == estimate_size("req")
    # Counters are allocated eagerly (the hot path records by direct
    # attribute access), so an idle direction shows up as zero.
    assert snap["traffic.alpha.sync.rpcs_in"] == 0


def test_plane_traffic_read_properties_track_counters():
    from repro.sim.metrics import MetricsRegistry
    m = MetricsRegistry()
    t = m.plane_traffic("beta", "sync")
    assert (t.rpcs_out, t.rpcs_in) == (0, 0)
    t.record_sent("x")
    t.record_sent("y")
    t.record_received("z")
    assert (t.rpcs_out, t.rpcs_in) == (2, 1)
    from repro.sim.metrics import estimate_size
    assert t.bytes_out == 2 * estimate_size("x")
    assert t.bytes_in == estimate_size("z")


# -- estimate_size: the exact-type sizer against the isinstance reference ------

def reference_size(payload: Any, depth: int = 4) -> int:
    """``estimate_size`` as it stood before the exact-type dispatch: the
    definition the fast sizer must reproduce integer for integer."""
    if payload is None or isinstance(payload, bool):
        return 4
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return 2 + len(payload)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        if depth <= 0:
            return 8 + 8 * len(payload)
        return 8 + sum(reference_size(item, depth - 1) for item in payload)
    if isinstance(payload, dict):
        if depth <= 0:
            return 8 + 16 * len(payload)
        return 8 + sum(reference_size(key, depth - 1)
                       + reference_size(value, depth - 1)
                       for key, value in payload.items())
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is not None:
        if depth <= 0:
            return 8 + 8 * len(fields)
        return 8 + sum(reference_size(getattr(payload, name), depth - 1)
                       for name in fields)
    return wire_size(payload)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Endpoint(NamedTuple):
    host: str
    port: int


class Tag(str):
    """A ``str`` subclass, as a uid-text wrapper might be."""


class Opaque:
    """Neither a builtin nor a dataclass: sized by its ``repr``."""

    def __repr__(self) -> str:
        return "<Opaque payload>"


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=12),
    st.binary(max_size=6).map(bytearray),
    st.sampled_from(list(Colour)), st.text(max_size=6).map(Tag),
    st.builds(Endpoint, st.text(max_size=6), st.integers()),
    st.just(Opaque()))
hashable_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.sampled_from(list(Colour)))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable_scalars, max_size=4),
        st.frozensets(hashable_scalars, max_size=4),
        st.dictionaries(hashable_scalars, children, max_size=4),
        st.builds(RpcRequest, st.integers(), st.text(max_size=6),
                  st.text(max_size=6), st.lists(children, max_size=3).map(tuple),
                  st.one_of(st.none(), st.integers())),
        st.builds(RpcReply, st.integers(), st.booleans(), children))


payloads = st.recursive(scalars, containers, max_leaves=25)


@given(payloads, st.integers(min_value=0, max_value=5))
def test_estimate_size_equals_the_reference(payload, depth):
    assert estimate_size(payload, depth) == reference_size(payload, depth)
    assert estimate_size(payload) == reference_size(payload)


def test_estimate_size_bool_is_not_an_int_and_subclasses_cost_their_base():
    assert estimate_size(True) == 4 and estimate_size(1) == 8
    assert estimate_size([True, 1, Colour.RED]) == 8 + 4 + 8 + 8
    assert estimate_size(Tag("abc")) == estimate_size("abc") == 5
    assert estimate_size(Endpoint("h", 1)) == estimate_size(("h", 1))
    assert estimate_size(Opaque()) == len("<Opaque payload>")


def test_estimate_size_depth_cut_off_charges_flat_per_item():
    request = RpcRequest(1, "svc", "method", ((1, 2), "x"))
    for payload in ([[1, 2], [3]], {"k": {"n": [1]}}, request, (request,)):
        for depth in range(6):
            assert estimate_size(payload, depth) == reference_size(payload, depth)
    assert estimate_size([1, 2, 3], depth=0) == 8 + 8 * 3
    assert estimate_size({"a": 1}, depth=0) == 8 + 16
    assert estimate_size(request, depth=0) == 8 + 8 * 5


# -- one message, one size: the sender's meter and the receiver's agree --------


def _byte_counters(system):
    snap = system.snapshot_metrics()
    return (sum(v for k, v in snap.items() if k.endswith(".bytes_out")),
            sum(v for k, v in snap.items() if k.endswith(".bytes_in")))


def test_send_and_receive_byte_counters_agree_on_an_rpc_round_trip():
    from repro.cluster import DistributedSystem, SystemConfig

    class Echo:
        def echo(self, value):
            return {"echoed": value}

    system = DistributedSystem(SystemConfig(seed=1))
    caller, callee = system.add_node("a"), system.add_node("b")
    callee.rpc.register("svc", Echo())
    args = ("sys:1", (1, 2, 3), None)
    reply = system.scheduler.run_until_settled(
        caller.rpc.call("b", "svc", "echo", args))
    assert reply == {"echoed": args}
    sent, received = _byte_counters(system)
    request_size = system.snapshot_metrics()["traffic.a.client.bytes_out"]
    assert request_size == reference_size(
        RpcRequest(1, "svc", "echo", (args,))) and sent == received
    assert system.snapshot_metrics()["traffic.b.client.bytes_in"] == request_size


def test_send_and_receive_byte_counters_agree_on_a_three_member_multicast():
    from repro.cluster import DistributedSystem, SystemConfig
    from repro.net.groups import GroupView

    system = DistributedSystem(SystemConfig(seed=1))
    members = [system.add_node(name) for name in ("m1", "m2", "m3")]
    view = GroupView(("m1", "m2", "m3"))
    for member in members:
        member.mcast.join("g", view, lambda delivery: None)
    payload = {"op": "add", "args": (7, "seven"), "path": (1, 2)}
    members[1].mcast.send("g", view, payload)  # a non-sequencer submits
    system.run(until=1.0)
    assert all(len(member.mcast.delivered) == 1 for member in members)
    sent, received = _byte_counters(system)
    assert sent == received > 0
    snap = system.snapshot_metrics()
    frames_in = sum(v for k, v in snap.items() if k.endswith(".mcasts_in"))
    data = reference_size(members[0].mcast._delivery_log["g"][1])
    submit = snap["traffic.m2.client.bytes_out"] - 2 * data  # m2 relays twice
    assert received == submit + (frames_in - 1) * data
