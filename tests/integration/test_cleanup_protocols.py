"""End-to-end tests for the cleanup protocols the paper defers.

Section 4.1.3: "a crash of a client does not automatically undo changes
made to the database.  So, failure detection and cleanup protocols will
be required."  These tests exercise the full loop: crash -> orphaned
state (db counters, server locks) -> detection -> repair -> the system
serves the next client as if nothing happened.  One janitor per server
host and name node does all of it (``repro.cluster.janitor``).
"""

from repro import DistributedSystem, SingleCopyPassive, SystemConfig
from repro.workload.audit import lock_leftovers

from tests.conftest import Counter, add_work, get_work


def build(seed=17, **config):
    system = DistributedSystem(SystemConfig(
        seed=seed, binding_scheme="independent",
        enable_cleaner=True, **config))
    system.registry.register(Counter)
    for host in ("s1", "s2"):
        system.add_node(host, server=True)
    system.add_node("t1", store=True)
    client = system.add_client("c1", policy=SingleCopyPassive())
    uid = system.create_object(Counter(system.new_uid(), value=0),
                               sv_hosts=["s1", "s2"], st_hosts=["t1"])
    return system, client, uid


def orphan_count(system, uid):
    snapshot = system.db.get_server_with_uses((0,), str(uid))
    system._release_probe_locks()
    return sum(sum(c.values()) for c in snapshot.uses.values())


def test_full_cleanup_cycle_after_client_crash():
    system, client, uid = build()

    def crashy(txn):
        yield from txn.invoke(uid, "add", 5)
        system.nodes["c1"].crash()
        yield from txn.invoke(uid, "add", 5)

    client.transaction(crashy)
    system.run(until=1.0)
    assert orphan_count(system, uid) > 0

    # Let the janitors (name node and server hosts) do their rounds.
    system.run(until=15.0)
    assert orphan_count(system, uid) == 0

    # A second client finds a fully healthy object: quiescent entry,
    # no stale locks, pre-crash state.
    other = system.add_client("c2", policy=SingleCopyPassive())
    result = system.run_transaction(other, get_work(uid))
    assert result.committed
    assert result.value == 0  # the orphaned +5 was rolled back


def test_quiescence_restored_enables_insert():
    """After cleanup, the object is quiescent again, so a recovering
    server node's Insert (section 4.1.2) can finally succeed."""
    system, client, uid = build()

    def crashy(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["c1"].crash()
        yield from txn.invoke(uid, "add", 1)

    client.transaction(crashy)
    system.run(until=1.0)
    assert not system.db.is_quiescent(str(uid))
    system.run(until=15.0)
    assert system.db.is_quiescent(str(uid))


def test_a_crash_after_its_actions_ended_leaves_nothing():
    """Crash a client bound but between db actions: its transaction
    committed and its unbind decremented, so no janitor finds a part of
    it to end or a use count of it to purge."""
    system, client, uid = build()
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    system.nodes["c1"].crash()
    system.run(until=15.0)
    assert orphan_count(system, uid) == 0
    assert lock_leftovers(system) == {}
    for ended in ("janitor.aborts", "janitor.commits",
                  "cleanup.clients_purged"):
        assert system.metrics.counter_value(ended) == 0, ended
