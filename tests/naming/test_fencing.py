"""End-to-end epoch fencing through the sharded client.

The satellite contract: a client holding a pre-flip
:class:`~repro.naming.shard_router.RingView` must get
:class:`~repro.net.errors.StaleRingEpoch` from the fenced shard
services, refresh its view, and commit on the *new* owners -- never
silently write to the wrong ones.  These tests drive the flip at
deterministic simulation instants (between a request's send and its
dispatch) to pin the exact window the old settle interval used to
paper over.
"""

import pytest

from repro.actions import ActionStatus, AtomicAction
from repro.actions.action import ActionId
from repro.naming import GroupViewDatabase, ShardRouter
from repro.naming.group_view_db import SERVICE_NAME
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.net.errors import StaleRingEpoch
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_fenced_world(ring=("shard-a", "shard-b"), replication=2):
    """Three booted shard hosts, ``ring`` of them on the router, every
    client-facing service fenced against the shared router.  The entry
    is pre-seeded on *every* host so any post-flip owner can serve it.
    """
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    router = ShardRouter(list(ring), replicas=8)
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase()
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SERVICE_NAME, db,
                              fence=lambda: router.fence_epoch)
        dbs[name] = db
    nic_c = net.attach("client")
    client_agent = RpcAgent(s, nic_c, default_timeout=0.5,
                            demux=MessageDemux(nic_c))
    client = ShardedGroupViewDbClient(client_agent, router,
                                      replication=replication)
    return s, dbs, agents, router, client


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def uses_at(db):
    snapshot = db.server_db.get_server_with_uses((0,), UID)
    db.server_db.locks.release_all(ActionId((0,)))
    return {h: dict(c) for h, c in snapshot.uses.items()}


def test_a_raw_stale_tag_is_rejected_with_the_server_epoch():
    s, dbs, agents, router, client = make_fenced_world()
    view = router.view()
    router.add_node("shard-c")  # the flip: fence advances
    target = router.nodes[0]
    call = client.io.rpc.call(target, SERVICE_NAME, "knows", str(UID),
                              ring_epoch=view.epoch)
    with pytest.raises(StaleRingEpoch) as info:
        s.run_until_settled(call)
    assert info.value.server_epoch == router.fence_epoch


def test_write_fenced_mid_flight_refreshes_and_commits_on_new_owners():
    """The settle-window killer: the membership flips after the write
    was sent but before it dispatches.  The fence rejects it, the
    engine refreshes its view, and the commit lands on the *current*
    owners -- no lost write, no write accepted by a non-owner."""
    s, dbs, agents, router, client = make_fenced_world()
    action = AtomicAction(node="client")

    def body():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    # FixedLatency(0.01): the first replica RPC sent at t=0 dispatches
    # at t=0.01.  Flip the ring at t=0.005 -- squarely in flight.
    s.schedule(0.005, lambda: router.add_node("shard-c"))
    status = run(s, body())
    assert status is ActionStatus.COMMITTED
    assert client.io.stale_retries >= 1, \
        "the in-flight write must have been fenced and re-routed"
    owners = router.preference_list(UID, 2)
    for owner in owners:
        assert uses_at(dbs[owner])["h1"] == {"client": 1}, \
            f"post-flip owner {owner} must hold the committed write"
    # No non-owner applied it (nothing slipped through the old view).
    for name, db in dbs.items():
        if name not in owners:
            assert uses_at(db)["h1"] == {}, \
                f"non-owner {name} must not have accepted the fenced write"


def test_read_fenced_mid_flight_refreshes_and_serves():
    s, dbs, agents, router, client = make_fenced_world()
    action = AtomicAction(node="client")

    def body():
        hosts, _view = yield from client.get_binding(action, UID, action)
        yield from action.commit()
        return hosts

    s.schedule(0.005, lambda: router.add_node("shard-c"))
    assert run(s, body()) == ["h1", "h2"]
    assert client.io.stale_retries >= 1


def test_single_home_write_is_fenced_too():
    """Even replication=1 (eager enlistment, no fan-out) carries the
    tag: a flip mid-flight must not let the old single home execute a
    write it no longer owns."""
    s, dbs, agents, router, client = make_fenced_world(
        ring=("shard-a",), replication=1)
    action = AtomicAction(node="client")

    def body():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    s.schedule(0.005, lambda: router.add_node("shard-b"))
    status = run(s, body())
    assert status is ActionStatus.COMMITTED
    assert client.io.stale_retries >= 1
    owner = router.shard_for(UID)
    assert uses_at(dbs[owner])["h1"] == {"client": 1}
    for name, db in dbs.items():
        if name != owner:
            assert uses_at(db)["h1"] == {}


def test_an_operation_cannot_outrun_a_flapping_ring():
    """Retries are bounded: a fence that never matches (a pathological
    routing storm) surfaces as the typed error, not an infinite loop."""
    s, dbs, agents, router, client = make_fenced_world()
    for agent in agents.values():
        agent.unregister(SERVICE_NAME)
    for name, agent in agents.items():
        # A server perpetually one epoch ahead of any client view.
        agent.register(SERVICE_NAME, dbs[name],
                       fence=lambda: router.fence_epoch + 1)
    action = AtomicAction(node="client")

    def body():
        yield from client.increment(action, "client", UID, ["h1"])

    with pytest.raises(StaleRingEpoch):
        run(s, body())
    retries = client.io.max_stale_retries
    assert client.io.stale_retries == retries + 1
    run(s, action.abort())


def test_fence_survives_shard_recovery():
    """A crashed host must re-arm the fence when it re-registers --
    recovering at "epoch 0" and serving fenced traffic unchecked is
    the failure the audit in the issue is about.  (The system harness
    re-registers through NameShardHost's boot hook; here we model the
    same re-registration.)"""
    s, dbs, agents, router, client = make_fenced_world()
    victim = router.nodes[0]
    agents[victim].reset()  # crash: services and fences die
    agents[victim].register(SERVICE_NAME, dbs[victim],
                            fence=lambda: router.fence_epoch)  # boot hook
    view = router.view()
    router.add_node("shard-c")
    call = client.io.rpc.call(victim, SERVICE_NAME, "knows", str(UID),
                              ring_epoch=view.epoch)
    with pytest.raises(StaleRingEpoch):
        s.run_until_settled(call)


def test_recovered_shard_host_re_arms_the_fence():
    """Crash/recovery runs NameShardHost's hook, then the resync gate
    pulls the service and re-registers it after convergence -- and that
    re-registration must re-arm the fence, or a recovered host would
    serve stale-ring traffic unchecked."""
    from repro import DistributedSystem, SystemConfig

    system = DistributedSystem(SystemConfig(
        seed=7, nameserver_shards=3, nameserver_replication=2))
    client_node = system.add_node("observer")
    victim = system.shard_hosts[0]

    stale_view = system.shard_router.view()
    system.nodes[victim].crash()
    system.run(until=system.scheduler.now + 1.0)
    system.nodes[victim].recover()
    system.run(until=system.scheduler.now + 30.0)  # resync re-registers
    assert system.shard_resyncers[victim].serving

    system.shard_router.add_node("late-host")  # advance the fence
    call = client_node.rpc.call(victim, SERVICE_NAME, "knows", "sys:1",
                                ring_epoch=stale_view.epoch)
    with pytest.raises(StaleRingEpoch) as info:
        system.scheduler.run_until_settled(call)
    assert info.value.server_epoch == system.shard_router.fence_epoch
