"""Tests for the replicated sharded client's failure handling.

The subtle case is not a *crashed* replica but a *live, queued* one: a
request that times out at the caller still executes when the replica's
single-server queue drains.  Skipping such a replica without enlisting
it would leave the stray op's provisional write and locks in place
forever (the host never crashes, so resync never runs).  The client
therefore fires a presumed abort behind every failed op to a
not-yet-enlisted replica; FIFO service order guarantees the abort lands
after the stray and rolls it back.
"""

from repro.actions import ActionStatus, AtomicAction
from repro.actions.action import ActionId
from repro.naming import GroupViewDatabase, ShardRouter
from repro.naming.group_view_db import SERVICE_NAME
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import lock_holders

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b")


def make_ring_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase()
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SERVICE_NAME, db)
        dbs[name] = db
    nic_c = net.attach("client")
    # The node-derived timeout (latency*6 + 0.05): far below the slow
    # replica's 0.2s service time, so its calls time out at the caller.
    client_agent = RpcAgent(s, nic_c, default_timeout=0.11,
                            demux=MessageDemux(nic_c))
    router = ShardRouter(list(NODES), replicas=8)
    client = ShardedGroupViewDbClient(client_agent, router, replication=2)
    return s, dbs, agents, router, client


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def uses_at(db):
    snapshot = db.server_db.get_server_with_uses((0,), UID)
    db.server_db.locks.release_all(ActionId((0,)))
    return {h: dict(c) for h, c in snapshot.uses.items()}


def test_stray_write_on_timed_out_live_replica_is_presume_aborted():
    s, dbs, agents, router, client = make_ring_world()
    primary, successor = router.preference_list(UID, 2)
    # Live but overloaded: every call times out at the caller (~0.11s)
    # yet still executes when the queue drains (0.2s service time).
    agents[successor].service_time = 0.2
    action = AtomicAction(node="client")

    def body():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    status = run(s, body())
    assert status is ActionStatus.COMMITTED  # the reached replica decides
    s.run(until=10.0)  # drain the slow queue: stray increment, then abort

    slow_db = dbs[successor]
    assert not slow_db.server_db._undo, \
        "the stray increment must be rolled back, not left provisional"
    assert not slow_db.server_db.locks.is_locked(("sv", UID)), \
        "the stray op's write lock must not outlive the presumed abort"
    assert uses_at(slow_db)["h1"] == {}, "the stray write is disowned"
    assert uses_at(dbs[primary])["h1"] == {"client": 1}, \
        "the enlisted replica committed the real write"
    # The entry stays writable on the slow replica afterwards.
    probe = AtomicAction(node="probe")
    slow_db.increment(probe.id.path, "probe", str(UID), ["h1"])
    slow_db.abort(probe.id.path)


def test_stray_read_lock_on_slow_primary_is_released():
    s, dbs, agents, router, client = make_ring_world()
    primary, successor = router.preference_list(UID, 2)
    agents[primary].service_time = 0.2
    action = AtomicAction(node="client")

    def body():
        hosts, _view = yield from client.get_binding(action, UID, action)
        yield from action.commit()
        return hosts

    hosts = run(s, body())
    assert hosts == ["h1", "h2"]  # served by the successor (failover)
    s.run(until=10.0)
    assert not dbs[primary].server_db.locks.is_locked(("sv", UID)), \
        "the timed-out read's stray lock must be presume-aborted"
    assert not dbs[primary].server_db._undo


def test_the_replica_answering_the_one_lookup_is_enlisted_for_both_roots():
    """The use-list bind reads ``St`` under the client action and
    ``Sv`` under its own top-level action in one call: the replica that
    answers holds a lock for each root and must hear from both 2PCs; a
    slow replica stepped past is presume-aborted for both."""
    s, dbs, agents, router, client = make_ring_world()
    primary, successor = router.preference_list(UID, 2)
    agents[primary].service_time = 0.2
    action, first = AtomicAction(node="client"), AtomicAction(node="client")

    def bind():
        snapshot, view = yield from client.get_binding_with_uses(
            first, UID, view_action=action)
        yield from first.commit()
        return list(snapshot.hosts), view

    assert run(s, bind()) == (["h1", "h2"], ["t1"])  # failover: successor
    answered = client.io.client_for(successor)
    assert answered.is_enlisted(action) and not answered.is_enlisted(first)
    assert not dbs[successor].server_db.locks.is_locked(("sv", UID))
    assert [owner.path for owner, _ in lock_holders(
        dbs[successor].state_db.locks, ("st", UID))] == [action.id.path]

    run(s, action.commit())
    assert not dbs[successor].state_db.locks.is_locked(("st", UID))
    s.run(until=10.0)  # the slow primary drains: stray lookup, two aborts
    assert not dbs[primary].server_db.locks.is_locked(("sv", UID))
    assert not dbs[primary].state_db.locks.is_locked(("st", UID)), \
        "the stray St read lock belongs to the client action's root"
    assert not client.io.client_for(primary).is_enlisted(action)
