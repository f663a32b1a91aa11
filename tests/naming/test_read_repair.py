"""Tests for spread reads and read-repair on the replicated ring.

The spread policy must rotate hot-arc reads across the whole replica
set (that is the load-balancing win) without ever serving a
transition's not-yet-copied incoming owners; read-repair must turn the
staleness a read *observes* -- a replica disclaiming an entry its
peers hold -- into a lock-guarded, version-gated install on the
laggard.
"""

from repro.actions import ActionStatus, AtomicAction
from repro.actions.action import ActionId
from repro.naming import GroupViewDatabase, ReadRepairer, ShardRouter
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.naming.shard_router import RingTransition
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_ring_world(replication=3, read_policy="primary", repair=False):
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    router = ShardRouter(list(NODES), replicas=8)
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase(partition_of=router.partition_of)
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SERVICE_NAME, db)
        agents[name].register(SYNC_SERVICE_NAME, db)  # the repair plane
        dbs[name] = db
    nic_c = net.attach("client")
    client_agent = RpcAgent(s, nic_c, default_timeout=0.5,
                            demux=MessageDemux(nic_c))
    repairer = None
    if repair:
        repairer = ReadRepairer(s, client_agent, router, replication,
                                min_interval=0.0)
    client = ShardedGroupViewDbClient(client_agent, router,
                                      replication=replication,
                                      read_policy=read_policy,
                                      repair=repairer)
    return s, dbs, agents, router, client


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def one_read(s, client):
    action = AtomicAction(node="client")

    def body():
        hosts, _view = yield from client.get_binding(action, UID, action)
        yield from action.commit()
        return hosts

    return run(s, body())


def reads_served(dbs):
    return {name: db.server_db.metrics.counter_value("server_db.get_server")
            for name, db in dbs.items()}


def test_primary_policy_always_reads_the_preference_head():
    s, dbs, agents, router, client = make_ring_world(read_policy="primary")
    head = router.preference_list(UID, 3)[0]
    for _ in range(6):
        one_read(s, client)
    served = reads_served(dbs)
    assert served[head] == 6
    assert all(count == 0 for name, count in served.items() if name != head)


def test_spread_policy_rotates_over_every_replica():
    s, dbs, agents, router, client = make_ring_world(read_policy="spread")
    for _ in range(6):
        one_read(s, client)
    served = reads_served(dbs)
    assert all(count == 2 for count in served.values()), served


def test_spread_still_fails_over_past_a_dead_replica():
    s, dbs, agents, router, client = make_ring_world(read_policy="spread")
    victim = router.preference_list(UID, 3)[1]
    agents[victim].unregister(SERVICE_NAME)
    agents[victim]._nic.up = False
    for _ in range(6):
        assert one_read(s, client) == ["h1", "h2"]
    served = reads_served(dbs)
    assert served[victim] == 0
    assert sum(served.values()) == 6


def test_transition_reads_stay_on_the_old_epoch():
    """A staged transition's incoming owners may not be copied yet:
    reads must exhaust the old epoch's replicas first, spread or not."""
    s, dbs, agents, router, client = make_ring_world(replication=2,
                                                     read_policy="spread")
    old_plist = router.preference_list(UID, 2)
    newcomer = [n for n in NODES if n not in old_plist][0]
    stale = dbs[newcomer]
    parsed = Uid.parse(str(UID))
    del stale.server_db._entries[parsed]  # the newcomer holds nothing
    del stale.state_db._entries[parsed]
    target = ShardRouter([newcomer], replicas=8)
    router.transition = RingTransition(target, epoch=1)

    for _ in range(4):
        assert one_read(s, client) == ["h1", "h2"]
    assert reads_served(dbs)[newcomer] == 0, \
        "an uncopied incoming owner must not serve reads"

    # Writes, though, flow through both epochs (dual ownership).
    action = AtomicAction(node="client")

    def write():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    assert run(s, write()) is ActionStatus.COMMITTED
    for name in old_plist:
        snapshot = dbs[name].server_db.get_server_with_uses((0,), parsed)
        dbs[name].server_db.locks.release_all(ActionId((0,)))
        assert dict(snapshot.uses["h1"]) == {"client": 1}


def test_write_skipping_a_replica_marks_the_transition_dirty():
    """A dual-ownership write that cannot reach a replica must flag
    the UID so the migration re-confirms its arc before flipping."""
    s, dbs, agents, router, client = make_ring_world(replication=2)
    old_plist = router.preference_list(UID, 2)
    newcomer = [n for n in NODES if n not in old_plist][0]
    target = ShardRouter([newcomer], replicas=8)
    transition = RingTransition(target, epoch=1)
    router.transition = transition
    agents[newcomer].unregister(SERVICE_NAME)
    agents[newcomer]._nic.up = False  # the incoming owner is dark

    action = AtomicAction(node="client")

    def write():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    assert run(s, write()) is ActionStatus.COMMITTED  # old epoch took it
    assert str(UID) in transition.dirty, \
        "the skipped incoming owner must un-confirm the arc"


def test_unknown_object_failover_triggers_a_reseed():
    s, dbs, agents, router, client = make_ring_world(repair=True)
    head = router.preference_list(UID, 3)[0]
    parsed = Uid.parse(str(UID))
    del dbs[head].server_db._entries[parsed]  # stale-missing replica
    del dbs[head].state_db._entries[parsed]

    assert one_read(s, client) == ["h1", "h2"]  # served by a successor
    assert client.io.repair.repairs_triggered == 1
    s.run(until=s.now + 5.0)  # let the background repair land
    assert dbs[head].knows(str(UID)), \
        "the failover's evidence must re-seed the stale replica"
    assert client.io.repair.entries_repaired >= 1


def test_repairs_are_throttled_per_uid():
    s, dbs, agents, router, client = make_ring_world(repair=True)
    client.io.repair.min_interval = 10.0
    head = router.preference_list(UID, 3)[0]
    parsed = Uid.parse(str(UID))
    del dbs[head].server_db._entries[parsed]
    del dbs[head].state_db._entries[parsed]
    for _ in range(5):
        one_read(s, client)
    assert client.io.repair.repairs_triggered == 1, \
        "repeated evidence inside the throttle window must coalesce"
