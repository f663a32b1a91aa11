"""Tests for the leased read plane (EntryCache + versioned reads).

The contract under test, bound by bound:

- a cache **hit** serves the binding without any network traffic at
  all (and without enlisting the name service in the action's 2PC);
- a **fence-epoch advance** -- any observable routing change -- kills
  every pre-change entry on its next lookup;
- a **lease expiry** falls back to an authoritative read and
  repopulates under a fresh lease;
- the owner's **own mutations invalidate write-through**, so a client
  never serves itself a binding it knows it changed;
- a **busy entry** (live action mid-flight) refuses the lock-free read
  and the client falls back to the authoritative locking path.
"""

import pytest

from repro.actions import ActionStatus, AtomicAction
from repro.naming import GroupViewDatabase, ShardRouter
from repro.naming.entry_cache import EntryCache, LedgerRecord
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")
LEASE = 5.0


def make_world(replication=2, lease=LEASE, capacity=64, keep_ledger=True):
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    dbs, agents = {}, {}
    router = ShardRouter(list(NODES), replicas=8)
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase(partition_of=router.partition_of)
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1", "h2"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SERVICE_NAME, db,
                              fence=lambda: router.fence_epoch)
        agents[name].register(SYNC_SERVICE_NAME, db)
        dbs[name] = db
    nic_c = net.attach("client")
    client_agent = RpcAgent(s, nic_c, default_timeout=0.5,
                            demux=MessageDemux(nic_c))
    cache = EntryCache(lease, fence=lambda: router.fence_epoch,
                       clock=lambda: s.now, capacity=capacity,
                       keep_ledger=keep_ledger)
    client = ShardedGroupViewDbClient(client_agent, router,
                                      replication=replication,
                                      cache=cache)
    return s, dbs, agents, router, client, client_agent


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def advance(s, dt):
    """Advance the simulation clock by ``dt`` (the scheduler is
    event-driven: with nothing queued, time stands still)."""
    from repro.sim.process import Timeout

    def body():
        yield Timeout(dt)

    run(s, body())


def one_lookup(s, client):
    action = AtomicAction(node="client")

    def body():
        result, _view = yield from client.get_binding(action, UID, action)
        status = yield from action.commit()
        return result, status

    return run(s, body())


def served_reads(dbs):
    return sum(db.server_db.metrics.counter_value("server_db.get_server")
               for db in dbs.values())


def test_miss_populates_and_hit_serves_without_any_rpc():
    s, dbs, agents, router, client, agent = make_world()
    hosts, status = one_lookup(s, client)
    assert hosts == ["h1", "h2"] and status is ActionStatus.COMMITTED
    assert client.cache.misses == 1 and client.cache.hits == 0

    issued_before = agent.calls_issued
    for _ in range(5):
        hosts, status = one_lookup(s, client)
        assert hosts == ["h1", "h2"] and status is ActionStatus.COMMITTED
    assert agent.calls_issued == issued_before, \
        "a cache hit must not touch the network at all"
    assert client.cache.hits == 5


def test_miss_read_enlists_no_participant_and_leaves_no_lock():
    from repro.actions.records import RemoteParticipantRecord

    s, dbs, agents, router, client, agent = make_world()
    action = AtomicAction(node="client")

    def body():
        result, _view = yield from client.get_binding(action, UID, action)
        status = yield from action.commit()
        return result, status

    hosts, status = run(s, body())
    assert hosts == ["h1", "h2"] and status is ActionStatus.COMMITTED
    # The lock-free versioned read enlists no 2PC participant (the
    # commit is local-only) and leaves no lock behind on any shard.
    assert not any(isinstance(r, RemoteParticipantRecord)
                   for r in action.records), \
        "the leased plane must not enlist the name service"
    for db in dbs.values():
        assert not db.server_db.locks._table, "no lock may outlive the read"
        assert not db.state_db.locks._table


def test_fence_epoch_advance_invalidates_on_next_lookup():
    s, dbs, agents, router, client, agent = make_world()
    one_lookup(s, client)
    assert client.cache.lookup(str(UID)) is not None

    router.add_node("shard-d")  # any membership change advances the fence
    assert client.cache.lookup(str(UID)) is None
    assert client.cache.fenced == 1, \
        "a routing change must kill every pre-change entry"


def test_lease_expiry_falls_back_and_repopulates():
    s, dbs, agents, router, client, agent = make_world()
    one_lookup(s, client)
    advance(s, LEASE + 0.1)

    hosts, status = one_lookup(s, client)
    assert hosts == ["h1", "h2"] and status is ActionStatus.COMMITTED
    assert client.cache.expired == 1
    entry = client.cache.lookup(str(UID))
    assert entry is not None and entry.lease_expiry > s.now, \
        "the expired miss must have repopulated under a fresh lease"


def test_own_mutation_invalidates_write_through():
    s, dbs, agents, router, client, agent = make_world()
    one_lookup(s, client)
    assert client.cache.lookup(str(UID)) is not None

    action = AtomicAction(node="client")

    def mutate():
        yield from client.increment(action, "client", UID, ["h1"])
        return (yield from action.commit())

    before = client.cache.lookup(str(UID))
    assert run(s, mutate()) is ActionStatus.COMMITTED
    assert str(UID) not in client.cache._entries, \
        "the owner must drop the binding it just changed"

    hosts, status = one_lookup(s, client)
    assert status is ActionStatus.COMMITTED
    entry = client.cache.lookup(str(UID))
    assert entry is not None
    assert entry.versions[0] > before.versions[0], \
        "the repopulated snapshot must carry the committed mutation"


def test_same_action_read_after_write_sees_own_provisional_state():
    s, dbs, agents, router, client, agent = make_world()
    one_lookup(s, client)
    action = AtomicAction(node="client")

    def body():
        yield from client.insert(action, UID, "h3")
        hosts, _view = yield from client.get_binding(action, UID, action)
        status = yield from action.commit()
        return hosts, status

    hosts, status = run(s, body())
    assert status is ActionStatus.COMMITTED
    assert hosts == ["h1", "h2", "h3"], \
        "a read after the action's own write must see that write"


def test_write_racing_a_repopulation_cannot_resurrect_the_stale_binding():
    """Same client, two concurrent actions: a repopulating read is
    suspended on the wire when the client's own write invalidates the
    uid (a no-op on the empty cache).  The read's reply carries the
    pre-write snapshot; storing it under a fresh lease would hand this
    client its own stale binding for a whole TTL.  The invalidation
    token captured before the read suspends must refuse that store."""
    from repro.actions.errors import LockRefused

    s, dbs, agents, router, client, agent = make_world()
    outcomes = {}

    def reader():
        action = AtomicAction(node="client")
        try:
            outcomes["read"], _view = yield from client.get_binding(action, UID, action)
            yield from action.commit()
        except LockRefused:
            yield from action.abort()
            outcomes["read"] = "refused"  # serialized behind the write

    def writer():
        action = AtomicAction(node="client")
        yield from client.insert(action, UID, "h3")
        outcomes["write"] = yield from action.commit()

    s.spawn(reader(), name="racing-reader")
    s.spawn(writer(), name="racing-writer")
    s.run(until=10.0)
    assert outcomes["write"] is ActionStatus.COMMITTED

    hosts, status = one_lookup(s, client)
    assert status is ActionStatus.COMMITTED
    assert hosts == ["h1", "h2", "h3"], \
        "the pre-write snapshot must not have been cached over the write"


def test_busy_entry_falls_back_to_the_authoritative_read():
    from repro.actions.errors import LockRefused

    s, dbs, agents, router, client, agent = make_world()
    # A live writer holds the entry on the primary: the lock-free read
    # answers "locked" there and the client takes the locking path,
    # which serializes behind the writer exactly as before the cache
    # existed (here: a LockRefused verdict the caller retries on).
    primary = router.preference_list(UID, 2)[0]
    writer = AtomicAction(node="other")
    dbs[primary].insert(writer.id.path, str(UID), "h9")

    action = AtomicAction(node="client")

    def body():
        try:
            yield from client.get_binding(action, UID, action)
        except LockRefused:
            yield from action.abort()
            return "refused"
        yield from action.commit()
        return "served"

    # Only the authoritative locking path can surface LockRefused (the
    # lock-free read answers the "locked" marker instead), so the
    # verdict itself proves the fallback ran.
    assert run(s, body()) == "refused"
    assert client.cache.hits == 0 and not client.cache._entries, \
        "a locked entry must not seed a lease"
    dbs[primary].abort(writer.id.path)


def test_gated_replica_cannot_seed_a_lease():
    """A recovering host is held out of the client serving path while
    its sync side door stays open for resync traffic.  The leased
    repopulation read must ride the *gated* client plane: with the
    primary dark and the only other replica gated, the miss must fail
    over to the authoritative path's error -- never quietly seed a
    lease from the gated host's (potentially pre-crash) state."""
    from repro.net.errors import RpcError

    s, dbs, agents, router, client, agent = make_world(replication=2)
    primary, secondary = router.preference_list(UID, 2)
    agents[primary].unregister(SERVICE_NAME)
    agents[primary].unregister(SYNC_SERVICE_NAME)
    agents[primary]._nic.up = False          # primary crashed
    agents[secondary].unregister(SERVICE_NAME)  # secondary gated mid-resync

    action = AtomicAction(node="client")

    def body():
        try:
            yield from client.get_binding(action, UID, action)
        except RpcError:
            yield from action.abort()
            return "unavailable"
        yield from action.commit()
        return "served"

    assert run(s, body()) == "unavailable", \
        "only gated/dark replicas remain: the read must fail, not serve"
    assert str(UID) not in client.cache._entries, \
        "nothing may seed a lease from a gated replica"


def test_leased_miss_reports_stale_missing_replicas_for_repair():
    """The lock-free repopulation walk must feed read-repair exactly
    like the authoritative read: stepping past a replica disclaiming
    an entry its peer serves is stale-missing evidence."""
    from repro.naming import ReadRepairer

    s, dbs, agents, router, client, agent = make_world(replication=3)
    repairer = ReadRepairer(s, agent, router, 3, min_interval=0.0)
    client.io.repair = repairer
    head = router.preference_list(UID, 3)[0]
    parsed = type(UID).parse(str(UID))
    del dbs[head].server_db._entries[parsed]  # stale-missing replica
    del dbs[head].state_db._entries[parsed]

    hosts, status = one_lookup(s, client)  # miss -> versioned walk
    assert hosts == ["h1", "h2"]
    assert repairer.repairs_triggered == 1, \
        "the stepped-past disclaiming replica must be reported"
    s.run(until=s.now + 5.0)
    assert dbs[head].knows(str(UID)), \
        "the triggered repair must re-seed the stale replica"


def test_ledger_records_every_hit_within_bounds():
    s, dbs, agents, router, client, agent = make_world()
    one_lookup(s, client)
    for _ in range(4):
        one_lookup(s, client)
    assert len(client.cache.ledger) == 4
    assert client.cache.ledger_violations() == []
    for record in client.cache.ledger:
        assert record.age <= LEASE
        assert record.ring_epoch == record.live_epoch


def test_ledger_record_violation_logic():
    fresh = LedgerRecord(uid="u", fetched_at=0.0, served_at=1.0,
                         ring_epoch=3, live_epoch=3, lease=5.0)
    assert not fresh.violates_bounds()
    overdue = LedgerRecord(uid="u", fetched_at=0.0, served_at=5.1,
                           ring_epoch=3, live_epoch=3, lease=5.0)
    assert overdue.violates_bounds()
    fenced = LedgerRecord(uid="u", fetched_at=0.0, served_at=1.0,
                          ring_epoch=3, live_epoch=4, lease=5.0)
    assert fenced.violates_bounds()


def test_lru_capacity_evicts_the_coldest_entry():
    s, dbs, agents, router, client, agent = make_world(capacity=2)
    cache = client.cache
    cache.store("u1", ["h"], ["t"], (1, 1))
    cache.store("u2", ["h"], ["t"], (1, 1))
    assert cache.lookup("u1") is not None  # warms u1 above u2
    cache.store("u3", ["h"], ["t"], (1, 1))
    assert cache.lookup("u2") is None, "the coldest entry must go first"
    assert cache.lookup("u1") is not None
    assert cache.lookup("u3") is not None


def test_cache_rejects_bad_parameters():
    with pytest.raises(ValueError):
        EntryCache(0.0, fence=lambda: 0, clock=lambda: 0.0)
    with pytest.raises(ValueError):
        EntryCache(1.0, fence=lambda: 0, clock=lambda: 0.0, capacity=0)


def test_lease_skew_anchors_at_receive_and_stretches_staleness():
    """The injected anchor flip: a skewed client re-stamps its leases
    at reply-receive time, so a slow reply quietly extends the declared
    staleness bound by the round trip -- visible in ``skewed_stores``
    and in the entry's later-than-honest expiry."""
    s, dbs, agents, router, client, agent = make_world()
    cache = client.cache
    one_lookup(s, client)  # honest send-anchored populate
    honest = cache.peek(str(UID))
    assert cache.skewed_stores == 0

    cache.invalidate(str(UID))
    cache.anchor = "receive"  # the FaultPlan skew event's effect
    before = s.now
    one_lookup(s, client)
    skewed = cache.peek(str(UID))
    assert cache.skewed_stores == 1
    # Send-anchored leases start at the probe-send clock; the skewed
    # store stamped at receive time, after the RPC round trip.
    assert skewed.fetched_at > before
    assert skewed.lease_expiry - skewed.fetched_at == pytest.approx(LEASE)

    cache.anchor = "send"  # unskew restores the honest discipline
    cache.invalidate(str(UID))
    one_lookup(s, client)
    assert cache.skewed_stores == 1
    assert honest is not None
