"""Tests for the use-list cleanup daemon (paper section 4.1.3)."""

from repro.actions import AtomicAction
from repro.naming import GroupViewDatabase, UseListCleaner
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import lock_holders, mode_held

UID = Uid("sys", 1)


class PingService:
    def __init__(self):
        self.alive = True

    def ping(self):
        if not self.alive:
            raise RuntimeError("should be unreachable")
        return "pong"


def make_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    nic_db = net.attach("db")
    db_agent = RpcAgent(s, nic_db, demux=MessageDemux(nic_db))
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
    db.commit(boot.id.path)
    nic_client = net.attach("c1")
    client_agent = RpcAgent(s, nic_client, demux=MessageDemux(nic_client))
    client_agent.register("client", PingService())
    cleaner = UseListCleaner(s, db_agent, db, interval=1.0)
    return s, net, db, cleaner


def use_lists(db):
    probe = AtomicAction()
    snapshot = db.server_db.get_server_with_uses(probe.id.path, UID)
    db.server_db.abort(probe.id.path)
    return {h: dict(c) for h, c in snapshot.uses.items()}


def bind_client(db, client_node="c1", hosts=("h1",)):
    action = AtomicAction()
    db.increment(action.id.path, client_node, str(UID), list(hosts))
    db.commit(action.id.path)


def run_round(s, cleaner):
    def body():
        return (yield from cleaner.run_once())
    return s.run_until_settled(s.spawn(body()), until=1000.0)


def test_live_client_counters_survive():
    s, net, db, cleaner = make_world()
    bind_client(db, "c1")
    purged = run_round(s, cleaner)
    assert purged == []
    assert use_lists(db)["h1"] == {"c1": 1}


def test_dead_client_counters_purged():
    s, net, db, cleaner = make_world()
    bind_client(db, "c1", hosts=("h1", "h2"))
    net._interfaces["c1"].up = False  # the client node crashes
    purged = run_round(s, cleaner)
    assert purged == ["c1"]
    assert use_lists(db) == {"h1": {}, "h2": {}}
    assert cleaner.clients_purged == 1


def test_unknown_client_node_purged():
    """A client that never had a ping service (e.g. never re-registered)."""
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost-node")
    purged = run_round(s, cleaner)
    assert purged == ["ghost-node"]


def test_mixed_live_and_dead_clients():
    s, net, db, cleaner = make_world()
    bind_client(db, "c1", hosts=("h1",))
    bind_client(db, "ghost", hosts=("h1",))
    purged = run_round(s, cleaner)
    assert purged == ["ghost"]
    assert use_lists(db)["h1"] == {"c1": 1}


def test_cleaner_idles_while_its_own_host_is_down():
    """A colocated daemon must not act while its node is crashed: every
    ping from a downed interface fails instantly, so a round run during
    the outage would 'detect' all clients as dead and purge them."""
    s, net, db, cleaner = make_world()
    bind_client(db, "c1")
    net._interfaces["db"].up = False  # the shard host crashes
    purged = run_round(s, cleaner)
    assert purged == []
    assert use_lists(db)["h1"] == {"c1": 1}, \
        "a live client's counters must survive the host's own outage"
    net._interfaces["db"].up = True
    assert run_round(s, cleaner) == []  # c1 answers pings again


def test_periodic_daemon_runs():
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost")
    cleaner.start()
    s.run(until=5.0)
    assert cleaner.rounds >= 3
    assert use_lists(db)["h1"] == {}
    cleaner.stop()


def test_purge_skips_write_locked_entry_until_next_round():
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost")
    holder = AtomicAction()
    db.remove(holder.id.path, str(UID), "h3")  # write lock on the entry
    purged = run_round(s, cleaner)
    assert purged == []  # could not read the entry this round
    db.abort(holder.id.path)
    purged = run_round(s, cleaner)
    assert purged == ["ghost"]


def test_purge_respects_lock_taken_while_ping_in_flight():
    """Regression for the lock-bypass bug: a binder that write-locks an
    entry *after* the cleaner's scan but before its purge (the ping RPC
    is in flight in between) must not have the purge interleave with
    it -- the entry is skipped and retried next round."""
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost", hosts=("h1",))
    binder = AtomicAction()

    def lock_during_ping():
        from repro.sim.process import Timeout
        yield Timeout(0.005)  # the ghost ping takes >= interval/2 = 0.5
        db.increment(binder.id.path, "c1", str(UID), ["h1"])

    s.spawn(lock_during_ping())
    purged = run_round(s, cleaner)
    assert purged == []  # the live binder's write lock won
    # The binder's provisional counter AND the ghost's are both intact.
    holders = lock_holders(db.server_db.locks, ("sv", UID))
    assert [owner.path for owner, _ in holders] == [binder.id.path]
    db.commit(binder.id.path)
    assert use_lists(db)["h1"] == {"ghost": 1, "c1": 1}
    assert db.metrics.counter_value("server_db.purge_skipped") >= 1
    # Next round (entry unlocked) the ghost is purged cleanly.
    purged = run_round(s, cleaner)
    assert purged == ["ghost"]
    assert use_lists(db)["h1"] == {"c1": 1}


def test_purge_terminates_through_the_action_machinery():
    """After a purge round, the cleaner's actions are fully resolved:
    no locks linger in the table and the undo log is empty."""
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost", hosts=("h1", "h2"))
    purged = run_round(s, cleaner)
    assert purged == ["ghost"]
    assert not db.server_db.locks.is_locked(("sv", UID))
    assert db.server_db.locks.owners() == set()
    assert not db.server_db._undo


def test_collect_probe_uses_allocated_action_id():
    """Regression for the magic ``(0,)`` probe id: a (harness) lock
    owned by action id ``(0,)`` must survive a cleanup round instead of
    being swept up by the collector's lock release."""
    from repro.actions.action import ActionId
    from repro.actions.locks import LockMode
    s, net, db, cleaner = make_world()
    bind_client(db, "ghost")
    boot_owner = ActionId((0,))
    db.server_db.locks.try_lock(boot_owner, ("sv", UID), LockMode.READ)
    run_round(s, cleaner)
    assert mode_held(db.server_db.locks, boot_owner, ("sv", UID)) \
        is LockMode.READ
