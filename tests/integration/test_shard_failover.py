"""Integration tests for the replicated shard ring.

With ``nameserver_replication > 1`` every group-view entry lives on its
ring arc's preference list, so a crashed shard host must not black-hole
its arc: writes flow through the surviving replicas, reads fail over
down the preference list, and the shard-resync daemon catches the
recovered host up from its peers before it serves again.
"""

import pytest

from repro import DistributedSystem, FaultPlan, SystemConfig
from repro.naming.group_view_db import SERVICE_NAME

from tests.conftest import (
    add_work,
    arm_crash_after_write_ack,
    assert_shard_replicas_agree as assert_replicas_agree,
    get_work,
)
from tests.integration.test_sharded_nameserver import build


def test_boot_replicates_entries_across_the_preference_list():
    system, _, uids = build(shards=4, objects=12, nameserver_replication=2)
    for uid in uids:
        replicas = system.shard_router.preference_list(uid, 2)
        assert len(set(replicas)) == 2
        for shard, db in system.db.shards.items():
            assert db.knows(str(uid)) == (shard in replicas)
        assert_replicas_agree(system, uid)


def test_replication_rejects_invalid_configs():
    with pytest.raises(ValueError):
        DistributedSystem(SystemConfig(nameserver_shards=3,
                                       nameserver_replication=0))
    with pytest.raises(ValueError):
        DistributedSystem(SystemConfig(nameserver_shards=2,
                                       nameserver_replication=3))
    with pytest.raises(ValueError):
        DistributedSystem(SystemConfig(nameserver_shards=1,
                                       nameserver_replication=2))


def test_bindings_commit_while_a_shard_host_is_down():
    """The acceptance shape: a crashed shard host must not black-hole
    the UIDs it owns -- their bindings keep committing via replicas."""
    system, (client,), uids = build(shards=3, objects=9,
                                    nameserver_replication=2)
    victim = system.shard_router.shard_for(uids[0])
    owned = [u for u in uids
             if system.shard_router.shard_for(u) == victim]
    assert owned, "seed must give the victim at least one primary arc"
    system.nodes[victim].crash()
    for uid in uids:  # every arc stays writable, victim-owned included
        assert system.run_transaction(client, add_work(uid, 1)).committed
    for uid in owned:  # and readable: reads fail over past the primary
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1


def test_recovered_shard_serves_reads_only_after_resync():
    system, (client,), uids = build(shards=3, objects=6,
                                    sv=("a1", "a2"), st=("b1", "b2"),
                                    nameserver_replication=2)
    victim = system.shard_router.shard_for(uids[0])
    system.nodes[victim].crash()
    # Crash a store host too: the next commits Exclude it from every
    # touched entry's St on the *surviving* replicas -- a durable
    # change the downed shard host misses and must copy on resync.
    system.nodes["b2"].crash()
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    system.nodes[victim].recover()
    resyncer = system.shard_resyncers[victim]
    # The boot hook gates the service back out before anything can run.
    assert not system.nodes[victim].rpc.has_service(SERVICE_NAME)
    assert not resyncer.serving
    system.run(until=system.scheduler.now + 30.0)
    assert resyncer.serving
    assert resyncer.resyncs_completed == 1
    assert resyncer.entries_refreshed > 0, \
        "the victim missed writes during its outage and must copy them"
    for uid in uids:
        assert_replicas_agree(system, uid)


def test_sweep_reaches_past_an_equal_version_stale_peer():
    """Two replicas that share the same staleness agree on versions;
    settling on that agreement would wedge them forever.  The sweep
    must consult *every* source and copy from the one strictly ahead."""
    from repro.actions import AtomicAction

    system, (client,), uids = build(shards=3, objects=3,
                                    nameserver_replication=3,
                                    shard_antientropy_interval=3.0)
    uid = uids[0]
    replicas = system.shard_router.preference_list(uid, 3)
    # A committed write that landed only on the LAST replica in
    # preference order (both earlier replicas' RPCs were disowned).
    # The use is the live client's, and it holds it: the janitors keep
    # it.
    fresh = system.db.shards[replicas[-1]]
    action = AtomicAction(node="test")
    fresh.increment(action.id.path, client.node.name, str(uid), ["a1"])
    fresh.commit(action.id.path)
    client.node.outcomes.hold(AtomicAction(node=client.node.name),
                              str(uid), ["a1"])

    system.run(until=system.scheduler.now + 12.0)  # a few sweep rounds
    assert_replicas_agree(system, uid, replication=3)
    snapshot = system.db.shards[replicas[0]].get_server_with_uses(
        (0,), str(uid))
    system._release_probe_locks()
    assert dict(snapshot.uses["a1"]) == {client.node.name: 1}, \
        "the fresh third replica's write must reach the stale pair"


def test_resynced_shard_can_carry_its_arc_alone():
    """After resync the recovered host's data is good enough to be the
    *only* live replica: crash its successor and keep binding."""
    system, (client,), uids = build(shards=3, objects=6,
                                    nameserver_replication=2)
    uid = uids[0]
    primary, successor = system.shard_router.preference_list(uid, 2)

    system.nodes[primary].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes[primary].recover()
    system.run(until=system.scheduler.now + 30.0)
    assert system.shard_resyncers[primary].serving

    system.nodes[successor].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    result = system.run_transaction(client, get_work(uid))
    assert result.committed and result.value == 2


def test_faultplan_scripted_rolling_shard_outages():
    """FaultPlan-scripted outages across the ring: every arc keeps one
    live replica at all times, so a closed loop of bindings never
    stalls and the ring heals to full agreement."""
    system, (client,), uids = build(shards=3, objects=6,
                                    nameserver_replication=2,
                                    enable_recovery_managers=False)
    a, b, c = system.shard_hosts
    plan = (FaultPlan()
            .outage(1.0, 8.0, a)
            .outage(12.0, 19.0, b)
            .outage(23.0, 30.0, c))
    assert plan.targets() == {a, b, c}
    system.install_fault_plan(plan)

    def clock_work(uid):
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        return work

    committed = 0
    deadline = 40.0
    rounds = 0
    while system.scheduler.now < deadline:
        for uid in uids:
            result = system.run_transaction(client, clock_work(uid))
            committed += 1 if result.committed else 0
        rounds += 1
    assert committed >= rounds * len(uids) * 0.9, \
        "rolling single-host outages must not dent a replicated ring"
    system.run(until=system.scheduler.now + 30.0)
    for host in (a, b, c):
        assert system.shard_resyncers[host].serving
    for uid in uids:
        assert_replicas_agree(system, uid)


def _strand_an_acked_increment():
    """Crash a replication-1 shard host between its acknowledgement of
    a bind's ``Increment`` and that action's outcome, then recover it.

    The bind action that wrote there commits without the home's
    acknowledgement of the outcome; the client action only *read*
    ``St`` there, and a name node is not polled: it commits, and the
    release that met silence is a heuristic.
    """
    system, (client,), uids = build(shards=2, objects=3,
                                    scheme="independent")
    uid = uids[0]
    home = system.shard_router.shard_for(uid)
    home_node = system.nodes[home]
    db = system.db.shards[home]

    fired = arm_crash_after_write_ack(system, db, home_node)
    seen = {}

    def work(txn):
        seen["action"] = txn.action
        return (yield from add_work(uid, 1)(txn))

    result = system.run_transaction(client, work)
    del db.increment
    assert fired and home_node.crashed
    assert result.committed
    assert [record.target for record, _exc in seen["action"].commit_failures
            ] == [home]
    [stranded] = fired
    home_node.recover()
    return system, client, uid, home, db, stranded


def test_bare_ring_restart_keeps_an_acked_write_for_its_outcome():
    """With replication=1 a crashed shard host has no peers to resync
    from.  The restart rule keeps what it acknowledged: the stranded
    Increment (its vote) survives recovery, the janitor then ends it as
    its coordinator decided, its lock goes, and the entry is usable
    again."""
    system, client, uid, home, db, stranded = _strand_an_acked_increment()
    assert db.server_db.wrote(stranded), \
        "the restart must keep an acknowledged-but-undecided write"
    system.run(until=system.scheduler.now + 5.0)  # two janitor rounds
    assert not db.server_db.wrote(stranded)
    assert not db.server_db.locks.is_locked(("sv", uid))
    assert system.metrics.counter_value(f"shard.{home}.janitor.commits") == 1
    retry = system.run_transaction(client, add_work(uid, 1))
    assert retry.committed, "the entry must be usable again after recovery"


def test_bare_ring_restart_leaves_an_idle_client_no_uses():
    """Once the crash is over and the client has bound and unbound
    again, an idle client holds no use on the entry: the committed
    Increment's count must have been matched by a Decrement."""
    system, client, uid, _home, db, _stranded = _strand_an_acked_increment()
    system.run(until=system.scheduler.now + 5.0)  # two janitor rounds
    assert system.run_transaction(client, add_work(uid, 1)).committed
    uses = db.get_server_with_uses((0,), str(uid)).uses
    system._release_probe_locks()
    assert not any(uses.values()), uses


def test_antientropy_sweep_repairs_divergence_without_a_crash():
    """A replica can go stale without ever crashing (e.g. a queued
    write that timed out at the caller and was presume-aborted); the
    periodic sweep must pull it level with its freshest peer -- and
    only in that direction, never stale-over-fresh."""
    from repro.actions import AtomicAction

    system, (client,), uids = build(shards=3, objects=3,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=3.0)
    uid = uids[0]
    primary, successor = system.shard_router.preference_list(uid, 2)
    # Divergence as a missed write would leave it: a committed
    # Increment applied at the primary only (bumping its entry
    # version), with the successor still at the older version.  (An
    # Sv/St membership divergence would also be repaired, but the
    # include guard patrols membership anyway; counters isolate the
    # sweep's contribution.)
    # The use is the live client's, and it holds it: the janitors keep
    # it.
    fresh = system.db.shards[primary]
    action = AtomicAction(node="test")
    fresh.increment(action.id.path, client.node.name, str(uid), ["a1"])
    fresh.commit(action.id.path)
    client.node.outcomes.hold(AtomicAction(node=client.node.name),
                              str(uid), ["a1"])

    def counters_at(shard):
        snapshot = system.db.shards[shard].get_server_with_uses(
            (0,), str(uid))
        system._release_probe_locks()
        return {h: dict(c) for h, c in snapshot.uses.items()}

    assert counters_at(primary)["a1"] == {client.node.name: 1}
    assert counters_at(successor)["a1"] == {}

    system.run(until=system.scheduler.now + 10.0)  # a few sweep rounds
    assert counters_at(successor)["a1"] == {client.node.name: 1}, \
        "the sweep must copy the fresher primary copy to the successor"
    assert counters_at(primary)["a1"] == {client.node.name: 1}, \
        "the stale successor must never overwrite the fresher primary"
    assert_replicas_agree(system, uid)


def test_stale_replica_missing_the_entry_cannot_veto_writes():
    """A replica that missed the define (e.g. via a disowned stray
    write) answers UnknownObject while live and serving.  Its ignorance
    must not outvote the replicas holding the committed entry -- writes
    and reads keep working, and the sweep re-seeds the entry.  (The
    independent scheme matters: its bind Increments actually fan out
    writes to the stale replica.)"""
    system, (client,), uids = build(shards=3, objects=3,
                                    scheme="independent",
                                    nameserver_replication=2,
                                    shard_antientropy_interval=3.0)
    uid = uids[0]
    primary, successor = system.shard_router.preference_list(uid, 2)
    stale = system.db.shards[successor]
    from repro.storage.uid import Uid
    parsed = Uid.parse(str(uid))
    del stale.server_db._entries[parsed]  # simulate the missed define
    del stale.state_db._entries[parsed]

    assert system.run_transaction(client, add_work(uid, 1)).committed, \
        "the fresh primary's acceptance decides, not the stale replica"
    result = system.run_transaction(client, get_work(uid))
    assert result.committed and result.value == 1

    system.run(until=system.scheduler.now + 10.0)  # a few sweep rounds
    assert stale.knows(str(uid)), "the sweep must re-seed the entry"
    assert_replicas_agree(system, uid)


def test_stale_replica_cannot_veto_a_grouped_exclude():
    """Exclude is the one multi-UID write; a stale replica answering
    UnknownObject for its whole shard group must not abort the
    excluding action -- even with the anti-entropy sweep disabled."""
    system, (client,), uids = build(shards=3, objects=3,
                                    sv=("a1", "a2"), st=("b1", "b2"),
                                    nameserver_replication=2,
                                    shard_antientropy_interval=None)
    uid = uids[0]
    primary, successor = system.shard_router.preference_list(uid, 2)
    stale = system.db.shards[successor]
    from repro.storage.uid import Uid
    parsed = Uid.parse(str(uid))
    del stale.server_db._entries[parsed]  # simulate the missed define
    del stale.state_db._entries[parsed]

    # A store-host crash makes the next commit Exclude it from St,
    # which fans the grouped exclude out to the stale replica too.
    system.nodes["b2"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed, \
        "the stale replica's ignorance must not veto the exclusion"
    view = system.db.shards[primary].get_view((0,), str(uid))
    system._release_probe_locks()
    assert view == ["b1"], "the exclusion must have landed at the primary"


def test_recovery_resync_skips_a_stale_source_for_a_fresh_one():
    """With replication=3, a recovering host whose first source replica
    is itself stale (missing the entry) must keep walking the
    preference list to the replica that holds it."""
    system, (client,), uids = build(shards=3, objects=3,
                                    nameserver_replication=3,
                                    shard_antientropy_interval=None)
    uid = uids[0]
    first, second, third = system.shard_router.preference_list(uid, 3)
    from repro.storage.uid import Uid
    parsed = Uid.parse(str(uid))
    # ``second`` never got the entry; ``first`` crashes and recovers and
    # must copy from ``third`` instead of giving up at ``second``.
    stale = system.db.shards[second]
    del stale.server_db._entries[parsed]
    del stale.state_db._entries[parsed]
    missing = system.db.shards[first]
    del missing.server_db._entries[parsed]
    del missing.state_db._entries[parsed]

    system.nodes[first].crash()
    system.run(until=system.scheduler.now + 1.0)
    system.nodes[first].recover()
    system.run(until=system.scheduler.now + 30.0)
    assert system.shard_resyncers[first].serving
    assert missing.knows(str(uid)), \
        "resync must reach past the stale source to the fresh one"
    assert system.run_transaction(client, add_work(uid, 1)).committed


def test_faultplan_rejects_unknown_targets():
    system, _, _ = build(shards=2, nameserver_replication=2)
    plan = FaultPlan().crash_at(1.0, "no-such-node")
    with pytest.raises(ValueError):
        system.install_fault_plan(plan)
