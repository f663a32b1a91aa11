"""Tests for the DistributedSystem harness."""

import pytest

from repro import DistributedSystem, FaultPlan, SingleCopyPassive, SystemConfig

from tests.conftest import Counter, add_work, build_system, get_work


def test_determinism_same_seed_same_outcome():
    def run(seed):
        system, client, uid = build_system(seed=seed)
        results = [system.run_transaction(client, add_work(uid, 1)).committed
                   for _ in range(5)]
        return results, system.scheduler.now, system.store_versions(uid)

    assert run(3) == run(3)


def test_different_seeds_allowed():
    # Not asserting inequality of outcomes (both may commit everything),
    # just that distinct seeds build distinct RNG streams without error.
    build_system(seed=1)
    build_system(seed=2)


def test_create_object_requires_store_host():
    system = DistributedSystem(SystemConfig(seed=1))
    system.registry.register(Counter)
    system.add_node("s1", server=True)
    with pytest.raises(ValueError):
        system.create_object(Counter(system.new_uid()), ["s1"], ["s1"])


def test_duplicate_node_name_rejected():
    system = DistributedSystem(SystemConfig(seed=1))
    system.add_node("n")
    with pytest.raises(ValueError):
        system.add_node("n")


def test_fault_plan_installation():
    system, client, uid = build_system()
    plan = FaultPlan().outage(1.0, 5.0, "s1")
    system.install_fault_plan(plan)
    system.run(until=2.0)
    assert system.nodes["s1"].crashed
    system.run(until=6.0)
    assert not system.nodes["s1"].crashed


def test_db_probe_helpers_leave_no_locks():
    system, client, uid = build_system()
    for _ in range(3):
        system.db_sv(uid)
        system.db_st(uid)
    db = system.db.shards["namenode"]
    assert not db.server_db.locks.owners()
    assert not db.state_db.locks.owners()


def test_store_versions_skips_crashed_nodes():
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    assert list(system.store_versions(uid)) == ["t1"]


def test_snapshot_metrics_contains_txn_counters():
    system, client, uid = build_system()
    system.run_transaction(client, add_work(uid))
    snapshot = system.metrics.snapshot()
    assert snapshot["txn.committed"] == 1


def test_scheme_selection_per_client():
    system, client, uid = build_system(scheme="standard")
    other = system.add_client("c9", policy=SingleCopyPassive(),
                              scheme="independent")
    assert other.scheme.name == "independent"
    assert client.scheme.name == "standard"
    result = system.run_transaction(other, add_work(uid))
    assert result.committed


def test_unknown_scheme_rejected():
    system, _, _ = build_system()
    with pytest.raises(KeyError):
        system.add_client("cX", scheme="nonsense")


def test_run_transaction_timeout_guard():
    from repro.sim.process import Timeout
    system, client, uid = build_system()

    def forever(txn):
        yield Timeout(10_000.0)

    with pytest.raises(RuntimeError):
        system.run_transaction(client, forever, timeout=1.0)


def test_new_uid_monotonic():
    system = DistributedSystem(SystemConfig(seed=1))
    uids = [system.new_uid() for _ in range(5)]
    assert uids == sorted(uids)
    assert len(set(uids)) == 5


def test_a_paper_get_binding_python_call_budget():
    """A guard on the host cost of routing the paper's clients through
    the one naming client: the python-level function calls
    (``sys.setprofile`` ``call`` events) of one ``get_binding`` on the
    paper's deployment, from the lookup's first frame to its binding
    coming back, the RPC round trip to the name node included.

    155 on python 3.11.7.  The per-verb single-node client this route
    replaced made 145: the ring of one adds the captured view, its
    read order and the connection lookup (150), and the name node
    served as a ring's host adds its fence check and the client times
    the lookup into its read-latency histogram (155; the scoped
    counters cost nothing net, the registry no longer building a
    throwaway instrument per lookup).  The budget leaves room for one
    frame, not for a layer.
    """
    import sys

    from repro.actions import AtomicAction

    system, client, uid = build_system()
    db, scheduler = client._ctx.db, system.scheduler

    def bind():
        action = AtomicAction(node="c1")
        return (yield from db.get_binding(action, uid, action))

    expected = (["s1", "s2", "s3"], ["t1", "t2"])
    assert scheduler.run_until_settled(scheduler.spawn(bind())) == expected
    calls = []

    def on_event(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    process = scheduler.spawn(bind())
    sys.setprofile(on_event)
    try:
        binding = scheduler.run_until_settled(process)
    finally:
        sys.setprofile(None)
    assert binding == expected
    assert len(calls) <= 156, sorted(calls)
