"""The convergence triggers, pinned by what crosses the wire.

Shard resync (recovered + periodic) and the reshard migration all
level replicas through ``ReplicaIO.converge``; these
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
# engine (3 shards x 2 replicas, 12 entries, seed-fixed ring), and
# rewritten deliberately twice since: once when the vector clocks went
# (a version names its content, so nothing past the scalar probe is left
# to ask), and once when entries were placed at define time (which peer
# holds the first entry a pass meets decides the probe order, so the
# victim is now whoever the router says holds ``uids[0]`` and its two
# peers are named in ring order).

# And rewritten deliberately a fourth time when anti-entropy came to
# compare partition digests before entries: enumeration and the version
# probe are one ``diff_partitions`` call per peer, whose reply carries
# the versions of the entries in the partitions that differ.

RECOVERY_RESYNC = [
    # Pass 1: compare, then one snapshot read per fresher source for
    # what the outage missed.  The partitions the outage did not touch
    # compare equal -- the crash kept their content, and their digests
    # say so -- and are neither listed nor copied again.
    ("peer0", "diff_partitions"), ("peer1", "diff_partitions"),
    ("peer0", "read_entry_versioned_many"),
    ("peer1", "read_entry_versioned_many"),
    # Pass 2: the confirmation round finds nothing to do; rejoin.
    ("peer0", "diff_partitions"), ("peer1", "diff_partitions"),
]

IN_SYNC_SWEEP = [("peer0", "diff_partitions"), ("peer1", "diff_partitions")]


def test_recovery_resync_and_in_sync_sweep_speak_the_golden_trace(rpc_log):
    system, (client,), uids = build(shards=3, objects=12,
                                    sv=("a1", "a2"), st=("b1", "b2"),
                                    nameserver_replication=2,
                                    shard_antientropy_interval=5.0)
    victim = system.shard_router.shard_for(uids[0])
    peers = dict(zip(("peer0", "peer1"),
                     (n for n in system.shard_router.nodes if n != victim)))

    def golden(trace):
        return [(peers[peer], method) for peer, method in trace]

    system.nodes[victim].crash()
    # A store host down too: commits Exclude it from the touched
    # entries' St on the surviving shard replicas -- naming writes the
    # victim misses and must copy by version.  The untouched half
    # probes level and stays put.
    system.nodes["b2"].crash()
    for uid in uids[::2]:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    del rpc_log[:]
    system.nodes[victim].recover()
    resyncer = system.shard_resyncers[victim]
    system.run(until=system.scheduler.now + 1.0)
    assert resyncer.serving and resyncer.resyncs_completed == 1
    assert resyncer.entries_refreshed == 4
    assert sync_rpcs(rpc_log, caller=victim) == golden(RECOVERY_RESYNC)

    del rpc_log[:]
    system.run(until=system.scheduler.now + 5.0)  # one sweep per host
    assert sync_rpcs(rpc_log, caller=victim) == golden(IN_SYNC_SWEEP)


def test_migration_probes_per_node_not_per_entry(rpc_log):
    """A live 3 -> 4 grow over N moved entries: every listing is batched
    (at most one ``diff_partitions`` per node and side per copy pass,
    plus one per outgoing owner per GC round), every snapshot rides
    ``read_entry_versioned_many``, and the copier opens no atomic
    action at a source."""
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
    for per_entry in ("entry_versions", "entry_versions_many",
                      "get_server_with_uses", "get_view", "prepare"):
        assert methods[per_entry] == 0, per_entry
    nodes = len(system.shard_router.nodes)
    assert nodes == 4
    passes = system.reshard.copy_passes
    assert 0 < methods["diff_partitions"] <= nodes * (2 * passes + 1)
    assert methods["guarded_install_entry"] == moved
    # One snapshot read per source per batch of moved entries -- far
    # fewer than one per entry.
    assert 0 < methods["read_entry_versioned_many"] < moved
