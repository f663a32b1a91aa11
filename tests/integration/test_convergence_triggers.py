"""The convergence triggers, pinned by what crosses the wire.

Shard resync (recovered + periodic), read-repair and the reshard
migration all level replicas through ``ReplicaIO.converge``; these
tests pin the *protocol* a trigger speaks on the sync service -- which
verbs, to whom, in which order, how many -- rather than the engine's
internals, so the engine can keep changing underneath them.  RPCs are
counted by method, never by time.
"""

from collections import Counter

from repro.naming.group_view_db import SYNC_SERVICE_NAME

from tests.conftest import add_work
from tests.integration.test_sharded_nameserver import build


def sync_rpcs(rpc_log, caller=None):
    """``(peer, method)`` of the sync-service RPCs logged so far."""
    return [(target, method) for who, target, service, method, _at in rpc_log
            if service == SYNC_SERVICE_NAME and caller in (None, who)]


# Recorded at the parent of the PR that moved resync onto the shared
# engine (3 shards x 2 replicas, 12 entries, seed-fixed ring): the swap
# had to leave both traces exactly alone.

RECOVERY_RESYNC = [
    # Pass 1: enumerate, probe, one snapshot read per fresher source
    # for what the outage missed...
    ("namenode1", "list_uids"), ("namenode2", "list_uids"),
    ("namenode2", "entry_versions_many"),
    ("namenode1", "entry_versions_many"),
    ("namenode2", "read_entry_versioned_many"),
    ("namenode1", "read_entry_versioned_many"),
    # ...then the clock tie-break per level peer: namenode1's clocks
    # dominate our volatile (restarted-empty) ones on the entries the
    # outage did not touch, so those are re-copied by force.
    ("namenode1", "entry_clocks_many"),
    ("namenode1", "read_entry_versioned_many"),
    ("namenode2", "entry_clocks_many"),
    # Pass 2: the confirmation round finds nothing to do; rejoin.
    ("namenode1", "list_uids"), ("namenode2", "list_uids"),
    ("namenode2", "entry_versions_many"),
    ("namenode1", "entry_versions_many"),
    ("namenode1", "entry_clocks_many"),
    ("namenode2", "entry_clocks_many"),
]

IN_SYNC_SWEEP = [
    ("namenode1", "list_uids"), ("namenode2", "list_uids"),
    ("namenode2", "entry_versions_many"),
    ("namenode1", "entry_versions_many"),
    ("namenode1", "entry_clocks_many"),
    ("namenode2", "entry_clocks_many"),
]


def test_recovery_resync_and_in_sync_sweep_speak_the_golden_trace(rpc_log):
    system, (client,), uids = build(shards=3, objects=12,
                                    sv=("a1", "a2"), st=("b1", "b2"),
                                    nameserver_replication=2,
                                    shard_antientropy_interval=5.0)
    victim = system.shard_router.shard_for(uids[0])
    assert victim == "namenode0"
    system.nodes[victim].crash()
    # A store host down too: commits Exclude it from the touched
    # entries' St on the surviving shard replicas -- naming writes the
    # victim misses and must copy by version.  The untouched half ties
    # on versions and goes to the clocks.
    system.nodes["b2"].crash()
    for uid in uids[::2]:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    del rpc_log[:]
    system.nodes[victim].recover()
    resyncer = system.shard_resyncers[victim]
    system.run(until=system.scheduler.now + 1.0)
    assert resyncer.serving and resyncer.resyncs_completed == 1
    assert resyncer.entries_refreshed == 4
    assert sync_rpcs(rpc_log, caller=victim) == RECOVERY_RESYNC

    del rpc_log[:]
    system.run(until=system.scheduler.now + 5.0)  # one sweep per host
    assert sync_rpcs(rpc_log, caller=victim) == IN_SYNC_SWEEP


def test_migration_probes_per_node_not_per_entry(rpc_log):
    """A live 3 -> 4 grow over N moved entries: every probe is batched
    (at most one ``entry_versions_many`` per node per copy pass), every
    snapshot rides ``read_entry_versioned_many``, and the copier opens
    no atomic action at a source."""
    system, (client,), uids = build(shards=3, objects=48,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=None)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    del rpc_log[:]
    record = system.run_until(system.plan_rebalance(add=1), timeout=120.0)
    moved = record["entries_copied"]
    assert moved >= 8, "the grow must move a real share of the entries"

    methods = Counter(method for _peer, method in sync_rpcs(rpc_log))
    for per_entry in ("entry_versions", "entry_clock",
                      "get_server_with_uses", "get_view", "prepare"):
        assert methods[per_entry] == 0, per_entry
    nodes = len(system.shard_router.nodes)
    assert nodes == 4
    passes = system.reshard.copy_passes
    assert 0 < methods["entry_versions_many"] <= nodes * passes
    assert methods["guarded_install_entry"] == moved
    # One snapshot read per source per batch of moved entries -- far
    # fewer than one per entry.
    assert 0 < methods["read_entry_versioned_many"] < moved
