"""The use-count repair (paper section 4.1.3), done by a name node's janitor.

A name node's janitor asks every client its use lists name about each
entry whose counts stood at one version for a round, in its one probe
per node, and lowers each counter to the uses the client holds (none,
for a silent client) under a top-level action of its own.  A client
counts a use from the moment its ``Increment`` is sent until its
``Decrement``'s action has an outcome.
"""

from repro.actions import AtomicAction
from repro.cluster import Janitor, Node
from repro.cluster.store_host import NameShardHost
from repro.naming import GroupViewDatabase
from repro.naming.binding import IndependentTopLevelBinding
from repro.naming.group_view_db import SERVICE_NAME
from repro.naming.shard_router import ShardRouter
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, Network
from repro.sim import Future, Scheduler
from repro.sim.process import Timeout
from repro.storage import Uid

from tests.conftest import lock_holders, mode_held

UID = Uid("sys", 1)


class HeldBack(FixedLatency):
    """Fixed latency, except that the next message from one node to
    another can be held back (``hold[(sender, target)] = delay``)."""

    def __init__(self) -> None:
        super().__init__(0.01)
        self.hold: dict[tuple[str, str], float] = {}

    def sample(self, sender, target):
        return self.hold.pop((sender, target), self.delay)


def make_world(install=False):
    """A name node ``db`` and a live client node ``c1``.  Returns the
    scheduler, the nodes, the database and a janitor that only runs
    when a test asks (``install``: the node's own, on its boot hook)."""
    s = Scheduler()
    net = Network(s, HeldBack())
    nodes = {name: Node(s, net, name) for name in ("db", "c1")}
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
    db.commit(boot.id.path)
    if install:
        NameShardHost.install_on(nodes["db"], db, fence=lambda: 0)
        return s, nodes, db, None
    nodes["db"].rpc.register(SERVICE_NAME, db)
    return s, nodes, db, Janitor(nodes["db"], db)


def use_lists(db):
    probe = AtomicAction()
    snapshot = db.server_db.get_server_with_uses(probe.id.path, UID)
    db.server_db.abort(probe.id.path)
    return {h: dict(c) for h, c in snapshot.uses.items()}


def bind_client(db, client_node="c1", hosts=("h1",)):
    """A committed Increment nobody holds: a lost unbind's leftover."""
    action = AtomicAction()
    db.increment(action.id.path, client_node, str(UID), list(hosts))
    db.commit(action.id.path)


def held_by(nodes, client_node="c1", hosts=("h1",)):
    """The client's table holds a use, for an action still open."""
    nodes[client_node].outcomes.hold(AtomicAction(node=client_node),
                                     str(UID), list(hosts))


def run_round(s, janitor):
    def body():
        return (yield from janitor.run_once())
    return s.run_until_settled(s.spawn(body()), until=s.now + 1000.0)


def two_rounds(s, janitor):
    """The first sees the entry's version, the second judges it."""
    return run_round(s, janitor) + run_round(s, janitor)


class Binder:
    """The figure-7 scheme on ``c1``, binding through the real RPCs."""

    def __init__(self, s, nodes):
        self.s = s
        db_client = ShardedGroupViewDbClient(nodes["c1"].rpc,
                                             ShardRouter(["db"]))
        self.scheme = IndependentTopLevelBinding(db_client, "c1")

    def bind(self):
        action = AtomicAction(node="c1")

        def activate(host, uid, action, st_hosts):
            bound = Future()
            bound.resolve(True)
            return bound

        def body():
            outcome = yield from self.scheme.bind(action, UID, activate, k=1)
            yield from action.commit()
            return outcome
        return self.s.spawn(body())

    def unbind(self, outcome):
        return self.s.spawn(self.scheme.unbind(UID, outcome))


def at(s, when, body):
    """Run ``body()`` (a generator) as a process starting at ``when``."""
    def delayed():
        yield Timeout(when - s.now)
        return (yield from body())
    return s.spawn(delayed())


def test_live_client_counters_survive():
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1")
    held_by(nodes, "c1")
    assert two_rounds(s, janitor) == 0
    assert use_lists(db)["h1"] == {"c1": 1}


def test_dead_client_counters_purged():
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1", hosts=("h1", "h2"))
    held_by(nodes, "c1", hosts=("h1", "h2"))
    nodes["c1"].crash()
    assert two_rounds(s, janitor) == 1
    assert use_lists(db) == {"h1": {}, "h2": {}}
    assert janitor.metrics.counter_value("janitor.uses_lowered") == 1


def test_unknown_client_node_purged():
    """A client no node answers for: never up, or gone for good."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost-node")
    assert run_round(s, janitor) == 0  # seen, not yet judged
    assert run_round(s, janitor) == 1
    assert use_lists(db)["h1"] == {}


def test_mixed_live_and_dead_clients():
    """One repair, two cases: the silent client holds nothing, the
    live one holds one of its two counted uses (its other unbind was
    lost), and each is lowered to what it holds."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "c1", hosts=("h1",))
    bind_client(db, "c1", hosts=("h1",))
    held_by(nodes, "c1", hosts=("h1",))
    bind_client(db, "ghost", hosts=("h1",))
    assert two_rounds(s, janitor) == 1
    assert use_lists(db)["h1"] == {"c1": 1}


def test_cleaner_idles_while_its_own_host_is_down():
    """The janitor is a process of its node: a crash kills it, so no
    round runs during the outage to 'detect' every client as dead (a
    probe from a downed interface fails at once); recovery starts a
    fresh one, to which the live client answers."""
    s, nodes, db, _ = make_world(install=True)
    bind_client(db, "c1")
    held_by(nodes, "c1")
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
    s.run(until=Janitor.INTERVAL + 1.0)
    assert use_lists(db)["h1"] == {"ghost": 1}  # one round has seen it
    s.run(until=2 * Janitor.INTERVAL + 1.0)
    assert use_lists(db)["h1"] == {}


def test_purge_skips_write_locked_entry_until_next_round():
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost")
    holder = AtomicAction()
    db.remove(holder.id.path, str(UID), "h3")  # write lock on the entry
    assert two_rounds(s, janitor) == 0  # could not lock the entry
    db.abort(holder.id.path)
    assert run_round(s, janitor) == 1
    assert use_lists(db)["h1"] == {}


def test_purge_respects_lock_taken_while_ping_in_flight():
    """Regression for the lock-bypass bug: a binder that locks an entry
    *after* the janitor's scan but before its write (the probe is in
    flight in between) must not have the repair interleave with it --
    the entry is skipped, and judged again only once its new version
    has stood for a round."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost", hosts=("h1",))
    run_round(s, janitor)
    binder = AtomicAction()

    def lock_during_probe():
        yield Timeout(0.005)  # the ghost's probe waits out a timeout
        db.increment(binder.id.path, "c1", str(UID), ["h1"])

    s.spawn(lock_during_probe())
    assert run_round(s, janitor) == 0  # the live binder's lock won
    # The binder's provisional counter AND the ghost's are both intact.
    holders = lock_holders(db.server_db.locks, ("sv", UID))
    assert [owner.path for owner, _ in holders] == [binder.id.path]
    db.commit(binder.id.path)
    held_by(nodes, "c1", hosts=("h1",))
    assert use_lists(db)["h1"] == {"ghost": 1, "c1": 1}
    assert run_round(s, janitor) == 0  # a new version: seen, not judged
    assert run_round(s, janitor) == 1
    assert use_lists(db)["h1"] == {"c1": 1}


def test_purge_terminates_through_the_action_machinery():
    """After a repair round, the janitor's actions are fully resolved:
    no locks linger in the table and the undo log is empty."""
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost", hosts=("h1", "h2"))
    assert two_rounds(s, janitor) == 1
    assert not db.server_db.locks.is_locked(("sv", UID))
    assert db.server_db.locks.owners() == set()
    assert not db.server_db._undo


def test_collect_probe_uses_allocated_action_id():
    """A (harness) lock owned by action id ``(0,)`` survives janitor
    rounds: the repair's own action takes and releases only its locks,
    and a lock naming no coordinator is never judged."""
    from repro.actions.action import ActionId
    from repro.actions.locks import LockMode
    s, nodes, db, janitor = make_world()
    bind_client(db, "ghost")
    boot_owner = ActionId((0,))
    db.server_db.locks.try_lock(boot_owner, ("sv", UID), LockMode.READ)
    assert two_rounds(s, janitor) == 0
    assert mode_held(db.server_db.locks, boot_owner, ("sv", UID)) \
        is LockMode.READ


# -- the reconcile window ----------------------------------------------------

def judge_while_binding(s, nodes, janitor, binder):
    """A janitor round whose answer from ``c1`` lands between a new
    bind's Increment reaching the name node and ``c1`` learning that
    action's outcome.  The answer (to the probe sent at +0.00, given
    at +0.01) comes back slowly; meanwhile ``c1`` binds: its Increment
    is applied at +0.05, its action committed at the name node at
    +0.07 and the client hears of that at +0.08 -- the answer lands at
    +0.075.  Returns what the round lowered and the bind's process."""
    start = s.now + 1.0
    nodes["db"].network.latency.hold[("c1", "db")] = 0.065
    lowered = at(s, start, lambda: janitor.run_once())
    bind = at(s, start + 0.02, lambda: (yield binder.bind()))
    s.run(until=start + 0.076)
    assert lowered.done and not bind.done
    return lowered.result(), bind


def test_an_answer_older_than_a_bind_leaves_its_increment_counted():
    """The answer misses the bind's use: it was given before the
    Increment was sent.  The entry's version has moved since the scan,
    so the round leaves the count alone."""
    s, nodes, db, janitor = make_world()
    binder = Binder(s, nodes)
    first = s.run_until_settled(binder.bind(), until=100.0)
    assert use_lists(db)["h1"] == {"c1": 1}
    run_round(s, janitor)  # seen at this version
    lowered, second = judge_while_binding(s, nodes, janitor, binder)
    assert lowered == 0
    assert use_lists(db)["h1"] == {"c1": 2}
    s.run_until_settled(second, until=100.0)
    assert two_rounds(s, janitor) == 0  # both uses held: nothing to lower
    for outcome in (first, second.result()):
        s.run_until_settled(binder.unbind(outcome), until=100.0)
    assert use_lists(db)["h1"] == {}


def test_a_decrement_in_flight_is_never_driven_below_zero():
    """A client holding two uses unbinds one; its Decrement is slow to
    arrive, and a janitor round judges the entry meanwhile.  The
    client still counts that use (the Decrement's outcome is not
    known), so the round lowers nothing, the Decrement then takes the
    count to the one use left, and the last unbind to zero."""
    s, nodes, db, janitor = make_world()
    binder = Binder(s, nodes)
    first = s.run_until_settled(binder.bind(), until=100.0)
    second = s.run_until_settled(binder.bind(), until=100.0)
    assert use_lists(db)["h1"] == {"c1": 2}
    run_round(s, janitor)
    start = s.now + 1.0
    unbind = at(s, start, lambda: (yield binder.unbind(first)))

    # The Decrement, sent at ``start``, is held back to arrive at +0.05;
    # the round's probe and answer are done by +0.021.
    nodes["db"].network.latency.hold[("c1", "db")] = 0.05
    lowered = at(s, start + 0.001, lambda: janitor.run_once())
    s.run(until=start + 0.03)
    assert lowered.done and lowered.result() == 0
    assert use_lists(db)["h1"] == {"c1": 2}
    s.run_until_settled(unbind, until=100.0)
    assert use_lists(db)["h1"] == {"c1": 1}
    assert two_rounds(s, janitor) == 0
    s.run_until_settled(binder.unbind(second), until=100.0)
    assert use_lists(db)["h1"] == {}
    # Defined at 1, then two Increments and two Decrements: no repair.
    assert db.server_db.entry_version(UID)[0] == 5


def test_a_recovered_client_loses_its_old_uses_while_alive():
    """A client crashes holding a use and recovers: its new incarnation
    holds none of the old ones, so they are lowered to zero while it is
    up and answering -- but not by an answer older than the use it
    binds again, which is kept."""
    s, nodes, db, janitor = make_world()
    binder = Binder(s, nodes)
    s.run_until_settled(binder.bind(), until=100.0)
    nodes["c1"].crash()
    nodes["c1"].recover()
    run_round(s, janitor)
    lowered, again = judge_while_binding(s, nodes, janitor, binder)
    assert lowered == 0
    assert use_lists(db)["h1"] == {"c1": 2}
    again = s.run_until_settled(again, until=100.0)
    assert two_rounds(s, janitor) == 1
    assert use_lists(db)["h1"] == {"c1": 1}
    assert not nodes["c1"].crashed
    s.run_until_settled(binder.unbind(again), until=100.0)
    assert use_lists(db)["h1"] == {}
