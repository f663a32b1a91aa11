"""Tests for the RPC layer."""

import sys

import pytest

from repro.net import (
    FixedLatency,
    MessageDemux,
    Network,
    RpcAgent,
    RpcRemoteError,
    RpcTimeout,
    StaleRingEpoch,
)
from repro.sim import Scheduler, SeededRng, Timeout
from repro.sim.metrics import MetricsRegistry


class Calc:
    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def boom(self):
        raise ValueError("kaput")

    def _secret(self):
        return "hidden"


def make_pair(latency=0.01, **kwargs):
    s = Scheduler()
    net = Network(s, FixedLatency(latency))
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic), **kwargs)
    return s, net, agents["a"], agents["b"]


def test_roundtrip():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 2, 3)
    assert s.run_until_settled(f) == 5


def test_remote_exception_becomes_rpc_remote_error():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "boom")
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "ValueError"
    assert "kaput" in info.value.remote_message


def test_unknown_service_and_method():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f1 = a.call("b", "nope", "add", 1, 2)
    with pytest.raises(RpcRemoteError) as e1:
        s.run_until_settled(f1)
    assert e1.value.remote_type == "UnknownService"
    f2 = a.call("b", "calc", "subtract", 1, 2)
    with pytest.raises(RpcRemoteError) as e2:
        s.run_until_settled(f2)
    assert e2.value.remote_type == "UnknownMethod"


def test_private_methods_not_callable():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "_secret")
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "UnknownMethod"


def test_call_to_dead_node_times_out():
    s, net, a, b = make_pair()
    b.register("calc", Calc())
    net.interface("b").up = False
    f = a.call("b", "calc", "add", 1, 2, timeout=0.5)
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)
    assert s.now >= 0.5


def test_callee_crash_mid_service_times_out():
    s, net, a, b = make_pair(latency=0.1)
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2, timeout=1.0)
    # Crash the callee after the request arrives but before it replies.
    # With zero service time the handler runs at delivery, so crash the
    # reply path instead: take b down right when the request is mid-flight.
    s.schedule(0.05, lambda: setattr(net.interface("b"), "up", False))
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)


def test_call_from_down_node_fails_immediately():
    s, net, a, b = make_pair()
    net.interface("a").up = False
    f = a.call("b", "calc", "add", 1, 2)
    assert f.failed
    with pytest.raises(RpcTimeout):
        f.result()


def test_generator_handler_runs_as_process():
    s, _, a, b = make_pair()

    class Slow:
        def work(self):
            yield Timeout(2.0)
            return "slept"

    b.register("slow", Slow())
    f = a.call("b", "slow", "work", timeout=10.0)
    assert s.run_until_settled(f) == "slept"
    assert s.now >= 2.0


def test_generator_handler_exception_propagates():
    s, _, a, b = make_pair()

    class Slow:
        def work(self):
            yield Timeout(0.5)
            raise KeyError("gen-fail")

    b.register("slow", Slow())
    f = a.call("b", "slow", "work", timeout=10.0)
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "KeyError"


def test_nested_rpc_from_generator_handler():
    s, _, a, b = make_pair()
    b.register("calc", Calc())

    class Proxy:
        def __init__(self, agent):
            self._agent = agent

        def forward(self, x, y):
            value = yield self._agent.call("b", "calc", "add", x, y)
            return value * 10

    a.register("proxy", Proxy(a))
    f = b.call("a", "proxy", "forward", 3, 4, timeout=5.0)
    assert s.run_until_settled(f) == 70


def test_service_time_delays_reply():
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 1, timeout=10.0)
    s.run_until_settled(f)
    assert s.now >= 1.0


def test_service_time_queues_concurrent_requests():
    """A node with a service time is a single-server queue: two
    concurrent requests are processed one after the other."""
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    b.register("calc", Calc())
    first = a.call("b", "calc", "add", 1, 1, timeout=10.0)
    second = a.call("b", "calc", "add", 2, 2, timeout=10.0)
    s.run_until_settled(first)
    assert 1.0 <= s.now < 2.0
    s.run_until_settled(second)
    assert s.now >= 2.0  # waited for the first to clear the CPU


def test_queued_requests_die_with_the_node():
    """Requests sitting in the service queue at crash time must not
    execute after the node recovers (fail-silence: the queue was
    volatile state)."""
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    calc = Calc()
    b.register("calc", calc)
    f = a.call("b", "calc", "add", 1, 1, timeout=0.4)
    s.run(until=0.5)  # request queued at b, not yet executed
    b.reset()                   # the node crashes...
    b.register("calc", calc)    # ...and recovers before the event fires
    s.run(until=5.0)
    assert calc.calls == 0, "a queued request must not survive the crash"
    assert f.failed  # the caller saw a timeout, as fail-silence demands


def test_reset_fails_pending_and_clears_services():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2)
    a.reset()
    assert f.failed
    assert not b.has_service("calc") or True  # a's reset doesn't touch b
    b.reset()
    assert not b.has_service("calc")


def test_reset_cancels_the_abandoned_calls_timers():
    """The timeout events of abandoned calls leave the heap at the
    reset instead of staying live to fire later as no-ops."""
    s, _, a, b = make_pair(latency=0.1)
    b.register("calc", Calc())
    held = a.call("b", "calc", "add", 0, 0, timeout=5.0)
    s.run_until_settled(held)  # an already completed call is no part of it
    futures = [a.call("b", "calc", "add", i, i, timeout=5.0) for i in range(3)]
    timers = [timer for _, timer in a._pending.values()]
    live = len(s._queue)
    a.reset()
    assert len(s._queue) == live - 3
    assert all(timer.cancelled for timer in timers)
    assert all(f.failed for f in futures)
    # Late replies (b still answers) and a late expiry find no entry.
    for timer in timers:
        a._expire(*timer.args)
    assert s.run() < 5.0  # nothing waits for the old deadlines
    assert b.calls_served == 4
    for f in futures:
        with pytest.raises(RpcTimeout, match="local node crashed"):
            f.result()


def test_completed_call_cancels_its_timer_without_a_callback():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 2, 3, timeout=5.0)
    (_, timer), = a._pending.values()
    assert f._callbacks is None  # no per-call closure hangs off the future
    assert s.run_until_settled(f) == 5
    assert timer.cancelled and not a._pending and len(s._queue) == 0


def test_round_trip_python_call_budget():
    """A guard on the RPC hot path that no clock can blur: the number
    of python-level function calls (``sys.setprofile`` ``call`` events)
    one metered, service-timed request/reply round trip makes, from
    ``RpcAgent.call`` to the caller's future resolving.

    83 before the fast path (PR 13's tree), 55 after it on python 3.11:
    each ``schedule`` pushes and each ``step`` pops in its own frame,
    no per-call timer closure, no per-message generator, ``chance``
    frame or ``msg_id`` lambda, ``Future.done`` a plain attribute.  3.12
    inlines the sizer's list comprehensions and counts fewer.  The
    budget leaves room for two frames, not for a layer.
    """
    s = Scheduler()
    net = Network(s, FixedLatency(0.001), rng=SeededRng(1))
    registry = MetricsRegistry()
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic),
                                service_time=0.0005,
                                traffic=registry.plane_traffic(name, "client"))
    a, b = agents["a"], agents["b"]
    b.register("calc", Calc())
    assert s.run_until_settled(a.call("b", "calc", "add", 1, 1)) == 2  # warm

    calls = []

    def on_event(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(on_event)
    try:
        value = s.run_until_settled(a.call("b", "calc", "add", 2, 3))
    finally:
        sys.setprofile(None)
    assert value == 5
    assert len(calls) <= 57, sorted(calls)


def test_duplicate_service_registration_rejected():
    _, _, _, b = make_pair()
    b.register("calc", Calc())
    with pytest.raises(ValueError):
        b.register("calc", Calc())


def test_late_reply_after_timeout_is_ignored():
    s, net, a, b = make_pair(latency=0.1)
    b.service_time = 0.5
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2, timeout=0.2)
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)
    s.run()  # the late reply arrives; must not blow up or re-settle
    assert f.failed


def test_call_counters():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2)
    s.run_until_settled(f)
    assert a.calls_issued == 1
    assert b.calls_served == 1


# -- epoch fencing -----------------------------------------------------------


def make_fenced_pair(**kwargs):
    s, net, a, b = make_pair(**kwargs)
    calc = Calc()
    epoch = {"value": 3}
    b.register("calc", calc, fence=lambda: epoch["value"])
    return s, a, b, calc, epoch


def test_fenced_service_serves_a_matching_tag():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=3)
    assert s.run_until_settled(f) == 5
    assert calc.calls == 1
    assert b.calls_fenced == 0


def test_fenced_service_rejects_a_stale_tag_with_its_epoch():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=2)
    with pytest.raises(StaleRingEpoch) as info:
        s.run_until_settled(f)
    assert info.value.server_epoch == 3
    assert calc.calls == 0, "a fenced request must be rejected pre-dispatch"
    assert b.calls_fenced == 1


def test_untagged_requests_pass_a_fenced_service():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 1, 1)
    assert s.run_until_settled(f) == 2
    assert calc.calls == 1


def test_tagged_requests_pass_an_unfenced_service():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 1, ring_epoch=99)
    assert s.run_until_settled(f) == 2


def test_fence_is_checked_at_dispatch_not_at_send():
    """The whole point of fencing over a settle window: a request that
    queued across an epoch change is rejected when it *executes*, even
    though its tag matched when it was sent."""
    s, a, b, calc, epoch = make_fenced_pair(service_time=0.2)
    ok = a.call("b", "calc", "add", 1, 1, ring_epoch=3, timeout=10.0)
    late = a.call("b", "calc", "add", 2, 2, ring_epoch=3, timeout=10.0)
    # The epoch moves while the second request sits in the service
    # queue behind the first.
    s.schedule(0.25, lambda: epoch.update(value=4))
    assert s.run_until_settled(ok) == 2
    with pytest.raises(StaleRingEpoch) as info:
        s.run_until_settled(late)
    assert info.value.server_epoch == 4
    assert calc.calls == 1


def test_reset_drops_the_fence_until_reregistration():
    s, a, b, calc, epoch = make_fenced_pair()
    b.reset()
    fresh = Calc()
    b.register("calc", fresh)  # recovered without re-arming the fence
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    assert s.run_until_settled(f) == 5, \
        "an unfenced re-registration must serve (the fence died with it)"
    b.unregister("calc")
    b.register("calc", fresh, fence=lambda: epoch["value"])
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    with pytest.raises(StaleRingEpoch):
        s.run_until_settled(f)


def test_unregister_clears_the_fence():
    s, a, b, calc, epoch = make_fenced_pair()
    b.unregister("calc")
    b.register("calc", calc)
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    assert s.run_until_settled(f) == 5
