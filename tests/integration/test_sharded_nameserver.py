"""Integration tests for the sharded name service.

The tentpole guarantee: partitioning the group-view database across a
consistent-hash ring of store hosts changes *where* an entry lives,
never *how* it behaves -- all three binding schemes, the figure-2/5
abort rules, recovery, and the cleanup daemon work unchanged against
``nameserver_shards > 1``.
"""

import pytest

from repro import (
    ActiveReplication,
    DistributedSystem,
    SingleCopyPassive,
    SystemConfig,
)
from repro.naming import ShardedGroupViewDatabase

from tests.conftest import (
    Counter,
    add_work,
    arm_crash_after_write_ack,
    assert_shard_replicas_agree,
    get_work,
)

SCHEMES = ["standard", "independent", "nested_top_level"]


def build(shards=3, sv=("a1", "a2"), st=("a1", "a2"), scheme="standard",
          policy=None, objects=5, clients=1, seed=7, **config_kwargs):
    system = DistributedSystem(SystemConfig(
        seed=seed, nameserver_shards=shards, binding_scheme=scheme,
        **config_kwargs))
    system.registry.register(Counter)
    for host in dict.fromkeys(list(sv) + list(st)):
        system.add_node(host, server=host in sv, store=host in st)
    runtimes = [system.add_client(f"c{i}", policy=policy or SingleCopyPassive())
                for i in range(clients)]
    uids = [system.create_object(Counter(system.new_uid(), value=0),
                                 sv_hosts=list(sv), st_hosts=list(st))
            for _ in range(objects)]
    return system, runtimes, uids


def test_boot_spreads_entries_over_the_ring():
    system, _, uids = build(shards=3, objects=12)
    assert isinstance(system.db, ShardedGroupViewDatabase)
    spread = system.shard_router.spread(uids)
    assert sum(spread.values()) == 12
    assert sum(1 for count in spread.values() if count > 0) >= 2
    for uid in uids:  # the facade and the ring agree on placement
        shard = system.shard_router.shard_for(uid)
        assert system.db.shards[shard].knows(str(uid))
        for other, db in system.db.shards.items():
            if other != shard:
                assert not db.knows(str(uid))


def test_an_entry_defined_mid_run_is_found_where_it_was_placed():
    """A client that asked for a uid before it was defined routed it by
    hash; once the harness places it elsewhere, the next lookup must go
    where the entry is, not where the ring view remembered."""
    system, (client,), uids = build(shards=4, objects=8,
                                    nameserver_replication=2)
    uid = system.new_uid()
    early = system.run_transaction(client, add_work(uid, 1))
    assert not early.committed
    system.create_object(Counter(uid, value=0), sv_hosts=["a1", "a2"],
                         st_hosts=["a1", "a2"])
    assert str(uid) in system.shard_router._placements.moved, \
        "the case needs an entry placed away from its hash partition"
    assert system.run_transaction(client, add_work(uid, 1)).committed


@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_schemes_commit_against_the_ring(scheme):
    system, (client,), uids = build(shards=3, scheme=scheme)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    for uid in uids:
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_transaction_spanning_many_shards(scheme):
    """A txn touching objects on different shards 2PCs with each."""
    system, (client,), uids = build(shards=4, objects=8, scheme=scheme)

    def work(txn):
        total = 0
        for uid in uids:
            total = yield from txn.invoke(uid, "add", 1)
        return total

    assert system.run_transaction(client, work).committed
    for uid in uids:
        assert system.run_transaction(client, get_work(uid)).value == 1


def test_fig2_abort_rules_survive_sharding():
    system, (client,), uids = build(shards=3, sv=("alpha",), st=("beta",),
                                    objects=1)
    assert system.run_transaction(client, add_work(uids[0], 1)).committed
    system.nodes["alpha"].crash()
    assert not system.run_transaction(client, add_work(uids[0], 1)).committed


def test_fig5_rolling_failures_survive_sharding():
    system, (client,), uids = build(shards=3, sv=("a1", "a2"),
                                    st=("b1", "b2"), objects=1)
    uid = uids[0]
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes["a1"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes["b1"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.run_transaction(client, get_work(uid)).value == 3


def test_independent_scheme_repairs_sv_on_the_owning_shard():
    system, (client,), uids = build(shards=3, sv=("s1", "s2", "s3"),
                                    st=("t1",), scheme="independent",
                                    objects=3,
                                    enable_recovery_managers=False)
    system.nodes["s1"].crash()
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
        assert "s1" not in system.db_sv(uid)


def test_store_recovery_reincludes_through_the_ring():
    system, (client,), uids = build(shards=2, sv=("a1", "a2"),
                                    st=("b1", "b2"), objects=2)
    uid = uids[0]
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes["b1"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.db_st(uid) == ["b2"]
    system.nodes["b1"].recover()
    system.run(until=system.scheduler.now + 30.0)
    assert sorted(system.db_st(uid)) == ["b1", "b2"]


def test_per_shard_cleaners_purge_crashed_clients():
    system, runtimes, uids = build(
        shards=3, sv=("s1", "s2"), st=("t1",), scheme="independent",
        objects=6, clients=1, enable_cleaner=True)
    hosts = system._shard_name_hosts.values()
    assert len(hosts) == 3 and all(host.janitor.purge for host in hosts)
    client = runtimes[0]

    def work(txn):
        for uid in uids:
            yield from txn.invoke(uid, "add", 1)
        system.nodes[client.node.name].crash()  # die mid-action
        yield from txn.invoke(uids[0], "add", 1)

    client.transaction(work)
    system.run(until=1.0)

    def orphans():
        total = 0
        for uid in uids:
            snapshot = system.db.get_server_with_uses((0,), str(uid))
            total += sum(sum(c.values()) for c in snapshot.uses.values())
        system._release_probe_locks()
        return total

    assert orphans() > 0, "the crashed client must leave counters behind"
    system.run(until=30.0)
    assert orphans() == 0, "every shard's janitor must repair its entries"


def test_sharding_rejects_invalid_configs():
    with pytest.raises(ValueError):
        DistributedSystem(SystemConfig(nameserver_shards=0))
    with pytest.raises(ValueError):
        DistributedSystem(SystemConfig(nameserver_shards=2,
                                       nonatomic_name_server=True))
    with pytest.raises(ValueError):  # nor grown into a ring live
        DistributedSystem(SystemConfig(
            nonatomic_name_server=True)).add_shard_host()


def test_shard_crash_between_write_ack_and_commit_resolves():
    """An Increment whose shard participant dies between acknowledging
    the write (its vote) and commit must resolve consistently on every
    replica: the survivors commit the decided action, the casualty's
    acknowledged-but-undecided state dies with its volatile memory, and
    resync re-copies the committed entry before the host serves again."""
    from repro import FaultPlan

    # The independent scheme (figure 7) Increments under its own
    # top-level bind action, so the shard participant has a write to
    # acknowledge -- standard binding never writes the db.
    system, (client,), uids = build(shards=3, objects=3,
                                    scheme="independent",
                                    nameserver_replication=2)
    uid = uids[0]
    replicas = system.shard_router.preference_list(uid, 2)
    victim = replicas[0]
    victim_node = system.nodes[victim]
    db = system.db.shards[victim]

    fired = arm_crash_after_write_ack(system, db, victim_node)
    result = system.run_transaction(client, add_work(uid, 1))
    del db.increment

    assert fired, "the doctored increment must have fired"
    assert victim_node.crashed
    # The bind action resolves *committed*: the survivor took phase 2,
    # the victim's missed commit is a recorded heuristic.  The client
    # action itself is conservatively vetoed (it had read-enlisted the
    # now-silent victim), so per the paper it simply restarts -- and
    # the restart must commit by skipping the dead replica.
    attempts = 1
    while not result.committed and attempts < 3:
        result = system.run_transaction(client, add_work(uid, 1))
        attempts += 1
    assert result.committed, "the restarted action must commit"
    assert system.run_transaction(client, get_work(uid)).value == 1

    plan = FaultPlan().recover_at(system.scheduler.now + 1.0, victim)
    system.install_fault_plan(plan)
    system.run(until=system.scheduler.now + 30.0)
    assert system.shard_resyncers[victim].serving

    assert_shard_replicas_agree(system, uid)
    follow_up = system.run_transaction(client, add_work(uid, 1))
    assert follow_up.committed
    assert system.run_transaction(client, get_work(uid)).value == \
        result.value + 1


def test_active_replication_on_the_ring():
    system, (client,), uids = build(shards=2, sv=("a1", "a2", "a3"),
                                    st=("b1",), policy=ActiveReplication(),
                                    objects=1)
    uid = uids[0]

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["a2"].crash()
        return (yield from txn.invoke(uid, "add", 1))

    result = system.run_transaction(client, work)
    assert result.committed and result.value == 2


def test_no_shard_client_remembers_a_resolved_action():
    """Each per-shard db client keeps a root -> participant table for
    the actions in flight; 200 committed and 20 aborted use-list
    transactions (client, bind and unbind action each reach two
    replicas) must leave every table empty."""
    system, clients, uids = build(shards=4, objects=6, clients=2,
                                  scheme="independent",
                                  nameserver_replication=2)

    def give_up(uid):
        def work(txn):
            yield from txn.invoke(uid, "add", 1)
            txn.abort()
        return work

    committed = aborted = 0
    for i in range(220):
        client, uid = clients[i % 2], uids[i % len(uids)]
        if i % 11 == 10:
            result = system.run_transaction(client, give_up(uid))
            aborted += not result.committed
        else:
            committed += system.run_transaction(client,
                                                add_work(uid, 1)).committed
    assert (committed, aborted) == (200, 20)

    def tables(db):
        return [shard_client._participants
                for shard_client in db.io._clients.values()]

    for client in clients:
        assert len(tables(client._ctx.db)) == 4
        assert not any(tables(client._ctx.db))
    # The include guards never stop probing: at most the one probe
    # action in flight when the run stopped is still remembered.
    for manager in system.recovery_managers.values():
        assert sum(map(len, tables(manager.db))) <= 1
    assert all(system.db.is_quiescent(str(uid)) for uid in uids)
