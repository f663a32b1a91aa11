"""The use-list purge (paper section 4.1.3), done by a name node's janitor.

A janitor with ``purge`` asks every client named in its use lists, in
its one probe per node, and purges the use counts of those that do not
answer, under a top-level action of its own.
"""

from repro.actions import AtomicAction
from repro.cluster import Janitor, Node
from repro.cluster.store_host import NameShardHost
from repro.naming import GroupViewDatabase
from repro.naming.group_view_db import SERVICE_NAME
from repro.net import FixedLatency, Network
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import lock_holders, mode_held

UID = Uid("sys", 1)


def make_world(install=False):
    """A name node ``db`` and a live client node ``c1``.  Returns the
    scheduler, the nodes, the database and a janitor that only runs
    when a test asks (``install``: the node's own, on its boot hook)."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    nodes = {name: Node(s, net, name) for name in ("db", "c1")}
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
    db.commit(boot.id.path)
    if install:
        NameShardHost.install_on(nodes["db"], db, fence=lambda: 0,
                                 purge=True)
        return s, nodes, db, None
    nodes["db"].rpc.register(SERVICE_NAME, db)
    return s, nodes, db, Janitor(nodes["db"], db, purge=True)


def use_lists(db):
    probe = AtomicAction()
    snapshot = db.server_db.get_server_with_uses(probe.id.path, UID)
    db.server_db.abort(probe.id.path)
    return {h: dict(c) for h, c in snapshot.uses.items()}


def bind_client(db, client_node="c1", hosts=("h1",)):
    action = AtomicAction()
    db.increment(action.id.path, client_node, str(UID), list(hosts))
    db.commit(action.id.path)


def run_round(s, janitor):
    def body():
        return (yield from janitor.run_once())
    return s.run_until_settled(s.spawn(body()), until=s.now + 1000.0)


def test_live_client_counters_survive():
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1")
    purged = run_round(s, janitor)
    assert purged == []
    assert use_lists(db)["h1"] == {"c1": 1}


def test_dead_client_counters_purged():
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1", hosts=("h1", "h2"))
    nodes["c1"].crash()
    purged = run_round(s, janitor)
    assert purged == ["c1"]
    assert use_lists(db) == {"h1": {}, "h2": {}}
    assert janitor.metrics.counter_value("cleanup.clients_purged") == 1


def test_unknown_client_node_purged():
    """A client no node answers for: never up, or gone for good."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost-node")
    purged = run_round(s, janitor)
    assert purged == ["ghost-node"]


def test_mixed_live_and_dead_clients():
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1", hosts=("h1",))
    bind_client(db, "ghost", hosts=("h1",))
    purged = run_round(s, janitor)
    assert purged == ["ghost"]
    assert use_lists(db)["h1"] == {"c1": 1}


def test_cleaner_idles_while_its_own_host_is_down():
    """The janitor is a process of its node: a crash kills it, so no
    round runs during the outage to 'detect' every client as dead (a
    probe from a downed interface fails at once); recovery starts a
    fresh one, to which the live client answers."""
    s, nodes, db, _ = make_world(install=True)
    bind_client(db, "c1")
    nodes["db"].crash()
    s.run(until=s.now + 3 * Janitor.INTERVAL)
    assert use_lists(db)["h1"] == {"c1": 1}, \
        "a live client's counters must survive the host's own outage"
    nodes["db"].recover()
    s.run(until=s.now + 3 * Janitor.INTERVAL)
    assert use_lists(db)["h1"] == {"c1": 1}


def test_periodic_daemon_runs():
    s, nodes, db, _ = make_world(install=True)
    bind_client(db, "ghost")
    s.run(until=2 * Janitor.INTERVAL + 1.0)
    assert use_lists(db)["h1"] == {}


def test_purge_skips_write_locked_entry_until_next_round():
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost")
    holder = AtomicAction()
    db.remove(holder.id.path, str(UID), "h3")  # write lock on the entry
    purged = run_round(s, janitor)
    assert purged == []  # could not read the entry this round
    db.abort(holder.id.path)
    purged = run_round(s, janitor)
    assert purged == ["ghost"]


def test_purge_respects_lock_taken_while_ping_in_flight():
    """Regression for the lock-bypass bug: a binder that write-locks an
    entry *after* the janitor's scan but before its purge (the probe is
    in flight in between) must not have the purge interleave with it --
    the entry is skipped and retried next round."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost", hosts=("h1",))
    binder = AtomicAction()

    def lock_during_probe():
        from repro.sim.process import Timeout
        yield Timeout(0.005)  # the ghost's probe waits out a timeout
        db.increment(binder.id.path, "c1", str(UID), ["h1"])

    s.spawn(lock_during_probe())
    purged = run_round(s, janitor)
    assert purged == []  # the live binder's lock won
    # The binder's provisional counter AND the ghost's are both intact.
    holders = lock_holders(db.server_db.locks, ("sv", UID))
    assert [owner.path for owner, _ in holders] == [binder.id.path]
    db.commit(binder.id.path)
    assert use_lists(db)["h1"] == {"ghost": 1, "c1": 1}
    assert db.metrics.counter_value("server_db.purge_skipped") >= 1
    # Next round (entry unlocked) the ghost is purged cleanly.
    purged = run_round(s, janitor)
    assert purged == ["ghost"]
    assert use_lists(db)["h1"] == {"c1": 1}


def test_purge_terminates_through_the_action_machinery():
    """After a purge round, the janitor's actions are fully resolved:
    no locks linger in the table and the undo log is empty."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost", hosts=("h1", "h2"))
    purged = run_round(s, janitor)
    assert purged == ["ghost"]
    assert not db.server_db.locks.is_locked(("sv", UID))
    assert db.server_db.locks.owners() == set()
    assert not db.server_db._undo


def test_collect_probe_uses_allocated_action_id():
    """Regression for the magic ``(0,)`` probe id: a (harness) lock
    owned by action id ``(0,)`` must survive a janitor round instead of
    being swept up by the collector's lock release -- and, naming no
    coordinator, it is never judged."""
    from repro.actions.action import ActionId
    from repro.actions.locks import LockMode
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost")
    boot_owner = ActionId((0,))
    db.server_db.locks.try_lock(boot_owner, ("sv", UID), LockMode.READ)
    run_round(s, janitor)
    run_round(s, janitor)
    assert mode_held(db.server_db.locks, boot_owner, ("sv", UID)) \
        is LockMode.READ
