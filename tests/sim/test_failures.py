"""Tests for fault injection."""

import pytest

from repro.sim import (
    CrashEvent,
    FaultPlan,
    FaultPlanError,
    Scheduler,
    SeededRng,
    StochasticFaultInjector,
)


class FakeTarget:
    def __init__(self, name):
        self.name = name
        self.crashed = False
        self.transitions = []

    def crash(self):
        self.crashed = True
        self.transitions.append("crash")

    def recover(self):
        self.crashed = False
        self.transitions.append("recover")


class FakeNetwork:
    """Records degrade/restore/block/unblock calls for assertions."""

    def __init__(self):
        self.calls = []

    def degrade(self, host, factor, drop=0.0):
        self.calls.append(("degrade", host, factor, drop))

    def restore(self, host):
        self.calls.append(("restore", host))

    def block(self, src, dst):
        self.calls.append(("block", src, dst))

    def unblock(self, src, dst):
        self.calls.append(("unblock", src, dst))


def test_crash_event_validates_kind():
    with pytest.raises(ValueError):
        CrashEvent(1.0, "n", "explode")


def test_fault_plan_outage():
    s = Scheduler()
    target = FakeTarget("n")
    plan = FaultPlan().outage(2.0, 5.0, "n")
    plan.install(s, {"n": target})
    s.run(until=3.0)
    assert target.crashed
    s.run()
    assert not target.crashed
    assert target.transitions == ["crash", "recover"]


def test_fault_plan_rejects_backwards_outage():
    with pytest.raises(ValueError):
        FaultPlan().outage(5.0, 2.0, "n")


def test_fault_plan_rejects_crash_of_crashed():
    plan = FaultPlan().crash_at(1.0, "n").crash_at(2.0, "n")
    with pytest.raises(FaultPlanError) as exc:
        plan.install(Scheduler(), {"n": FakeTarget("n")})
    assert exc.value.event.time == 2.0
    assert "already crashed" in exc.value.reason


def test_fault_plan_rejects_recover_of_live():
    plan = FaultPlan().recover_at(1.0, "n")
    with pytest.raises(FaultPlanError):
        plan.install(Scheduler(), {"n": FakeTarget("n")})


def test_fault_plan_rejects_degrade_of_crashed():
    plan = FaultPlan().crash_at(1.0, "n").degrade_at(2.0, "n", factor=5.0)
    with pytest.raises(FaultPlanError) as exc:
        plan.install(Scheduler(), {"n": FakeTarget("n")},
                     network=FakeNetwork())
    assert "cannot degrade" in exc.value.reason


def test_fault_plan_error_is_a_value_error():
    with pytest.raises(ValueError):
        FaultPlan().recover_at(1.0, "n").validate()


def test_fault_plan_network_events_need_a_network():
    plan = FaultPlan().gray(1.0, 2.0, "n", factor=5.0)
    with pytest.raises(ValueError, match="no network"):
        plan.install(Scheduler(), {"n": FakeTarget("n")})


def test_fault_plan_gray_window_drives_the_network():
    s = Scheduler()
    net = FakeNetwork()
    plan = FaultPlan().gray(1.0, 3.0, "n", factor=20.0, drop=0.25)
    plan.install(s, {"n": FakeTarget("n")}, network=net)
    s.run()
    assert net.calls == [("degrade", "n", 20.0, 0.25), ("restore", "n")]


def test_fault_plan_partial_partition_is_directional():
    s = Scheduler()
    net = FakeNetwork()
    plan = FaultPlan().partial_partition(1.0, 2.0, "a", "b")
    plan.install(s, {"a": FakeTarget("a"), "b": FakeTarget("b")}, network=net)
    s.run()
    assert net.calls == [("block", "a", "b"), ("unblock", "a", "b")]


def test_fault_plan_skew_flips_the_lease_anchor():
    class FakeCache:
        anchor = "send"

    s = Scheduler()
    cache, other = FakeCache(), FakeCache()
    plan = FaultPlan().skew_at(1.0, "c1").unskew_at(5.0, "c1")
    plan.install(s, {"c1": FakeTarget("c1")},
                 caches={"c1": cache, "c1+": cache, "c2": other})
    s.run(until=2.0)
    assert cache.anchor == "receive"
    assert other.anchor == "send"
    s.run()
    assert cache.anchor == "send"


def test_stochastic_injector_crashes_and_repairs():
    s = Scheduler()
    rng = SeededRng(11)
    target = FakeTarget("n")
    injector = StochasticFaultInjector(s, rng, mean_time_to_failure=5.0,
                                       mean_time_to_repair=1.0,
                                       stop_after=200.0)
    injector.attach(target)
    s.run(until=250.0)
    assert injector.crashes_injected > 5
    assert injector.recoveries_injected > 5
    assert target.transitions[0] == "crash"


def test_stochastic_injector_without_repair_crashes_once():
    s = Scheduler()
    target = FakeTarget("n")
    injector = StochasticFaultInjector(s, SeededRng(3),
                                       mean_time_to_failure=1.0,
                                       stop_after=100.0)
    injector.attach(target)
    s.run(until=150.0)
    assert target.transitions == ["crash"]


def test_stochastic_injector_is_deterministic():
    def run(seed):
        s = Scheduler()
        target = FakeTarget("n")
        injector = StochasticFaultInjector(s, SeededRng(seed), 5.0, 1.0,
                                           stop_after=100.0)
        injector.attach(target)
        s.run(until=150.0)
        return injector.crashes_injected

    assert run(1) == run(1)


def test_stochastic_injector_rejects_bad_mttf():
    with pytest.raises(ValueError):
        StochasticFaultInjector(Scheduler(), SeededRng(1), 0.0)


def test_stochastic_injector_repair_time_distribution():
    """Downtimes are exponential with the configured mean."""
    s = Scheduler()
    target = FakeTarget("n")
    injector = StochasticFaultInjector(s, SeededRng(7),
                                       mean_time_to_failure=2.0,
                                       mean_time_to_repair=1.5,
                                       stop_after=5000.0)
    injector.attach(target)
    s.run(until=6000.0)
    ups = {}
    downtimes = []
    for when, _name, kind in injector.timeline:
        if kind == "crash":
            ups["n"] = when
        elif kind == "recover":
            downtimes.append(when - ups.pop("n"))
    assert len(downtimes) > 200
    mean = sum(downtimes) / len(downtimes)
    assert 1.5 * 0.85 < mean < 1.5 * 1.15
    # Exponential, not constant: wide spread around the mean.
    assert min(downtimes) < 0.2 and max(downtimes) > 4.0


def test_stochastic_injector_stop_after_cutoff():
    """No transition is injected past the stop_after horizon."""
    s = Scheduler()
    target = FakeTarget("n")
    injector = StochasticFaultInjector(s, SeededRng(5),
                                       mean_time_to_failure=3.0,
                                       mean_time_to_repair=1.0,
                                       stop_after=50.0)
    injector.attach(target)
    s.run(until=500.0)
    assert injector.timeline, "expected at least one injected fault"
    crash_times = [t for t, _n, kind in injector.timeline if kind == "crash"]
    assert max(crash_times) <= 50.0
    # Recoveries may trail a pre-cutoff crash, but nothing new starts.
    assert all(kind in ("crash", "recover")
               for _t, _n, kind in injector.timeline)


def test_stochastic_injector_timeline_is_bitwise_deterministic():
    """Same seed -> identical timeline; each target's draws ride its
    own substream, so one target's schedule ignores the others'."""

    def run(seed, names=("a", "b")):
        s = Scheduler()
        injector = StochasticFaultInjector(
            s, SeededRng(seed), mean_time_to_failure=4.0,
            mean_time_to_repair=1.0, stop_after=300.0)
        injector.attach_all([FakeTarget(name) for name in names])
        s.run(until=400.0)
        return injector.timeline

    first, second = run(13), run(13)
    assert first == second
    assert first != run(14)
    assert {kind for _t, _n, kind in first} == {"crash", "recover"}
    assert {name for _t, name, _k in first} == {"a", "b"}
    assert [event for event in first if event[1] == "a"] == run(13, ("a",))
