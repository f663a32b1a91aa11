"""Each auditor, shown to fail on a planted defect (not only to pass)."""

import dataclasses

import pytest

from repro.workload.audit import (
    CacheLedgerAudit,
    CounterLedgerAudit,
    PlacementAudit,
)
from repro.workload.generator import invoke
from repro.workload.scenario import Counter, Run
from repro.workload.scenarios import SCENARIOS


@pytest.fixture
def settled():
    """A small replicated deployment after a clean closed-loop run."""
    scenario = SCENARIOS["online_reshard"]
    run = Run(scenario, scenario.bind(dict(
        clients=3, txns_per_client=4, server_hosts=3, initial_shards=3)))
    run.run_streams()
    assert run.report.commit_rate == 1.0
    return run


def test_auditors_pass_on_a_clean_run(settled):
    assert CounterLedgerAudit().audit(settled) == {
        "lost_bindings": 0, "stale_bindings": 0}
    assert PlacementAudit().audit(settled) == {
        "misplaced_entries": 0, "replica_disagreements": 0}


def test_increment_behind_the_ledgers_back_is_invented(settled):
    system, uid = settled.system, settled.uids[1]
    assert system.run_transaction(settled.runtimes[0],
                                  invoke(uid, "add", 2)).committed
    assert CounterLedgerAudit(invented="invented").audit(settled) == {
        "lost_bindings": 0, "invented": 2}


def test_committed_add_rolled_back_in_the_store_is_lost(settled):
    system, uid = settled.system, settled.uids[2]
    host = system.nodes[system.db_st(uid)[0]]
    # Roll the stable store back to the initial state, and restart the
    # host so the next bind re-activates the object from that store.
    host.object_store.remove(uid)
    host.object_store.install(uid, Counter(uid, value=0).serialise(), 1)
    host.crash()
    host.recover()
    assert CounterLedgerAudit().audit(settled) == {
        "lost_bindings": 4, "stale_bindings": 0}


def test_unreadable_counter_loses_everything_it_held(settled):
    system, uid = settled.system, settled.uids[0]
    system.nodes[system.db_st(uid)[0]].crash()
    assert CounterLedgerAudit().audit(settled)["lost_bindings"] == 4


def test_entry_on_a_non_owner_shard_is_misplaced(settled):
    system, uid = settled.system, settled.uids[0]
    owners = system.shard_router.preference_list(uid, 2)
    [stranger] = set(system.db.shards) - set(owners)
    system.db.shards[stranger].define_object((0,), str(uid), ["s0"], ["s0"])
    system.db.shards[stranger].commit((0,))
    assert PlacementAudit().audit(settled) == {
        "misplaced_entries": 1, "replica_disagreements": 0}


def test_owners_with_different_sv_disagree(settled):
    system, uid = settled.system, settled.uids[0]
    owner = system.shard_router.preference_list(uid, 2)[1]
    system.db.shards[owner].insert((0,), str(uid), "s2")
    system.db.shards[owner].commit((0,))
    assert PlacementAudit(misplaced=None).audit(settled) == {
        "replica_disagreements": 1}


def test_cache_read_past_its_lease_is_a_violation():
    scenario = SCENARIOS["leased_read"]
    run = Run(scenario, scenario.bind(dict(
        shards=2, lease=5.0, clients=2, txns_per_client=3)))
    run.run_streams()
    assert CacheLedgerAudit().audit(run) == {"ledger_violations": 0}
    ledger = next(iter(run.system.entry_caches.values())).ledger
    ledger.append(dataclasses.replace(ledger[-1], served_at=99.0))
    assert CacheLedgerAudit().audit(run) == {"ledger_violations": 1}
