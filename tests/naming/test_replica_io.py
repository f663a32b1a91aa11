"""Unit tests for the ReplicaIO engine's sync plane.

The client plane (fenced fan-out writes, failover reads) is exercised
end-to-end by ``test_replicated_client.py``, ``test_read_policy.py``
and ``test_fencing.py``; these tests pin the sync-plane contract every
maintenance daemon (resync, migration) shares: ``converge``'s
outcomes, its multi-source version-half merging, its batching (round
trips per node, not per entry, with every install of a source sent at
once), the local target a resync uses for its own database, and the
rule that no copier lock ever spans the wire.

The leased read plane's lock-free fill (``read_versioned``) is pinned
here too: one request at a time without a health tracker, and with one
a staggered hedge whose losing request still reports back.
"""

from collections import Counter

import pytest

from repro.actions import AtomicAction
from repro.actions.errors import LockRefused
from repro.naming import GroupViewDatabase, ReplicaIO, ShardRouter
from repro.naming.replica_io import versions_held
from repro.naming.group_view_db import (
    SERVICE_NAME, SYNC_SERVICE_NAME, diff_request)
from repro.naming.peer_health import PeerHealthTracker
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import serve_outcomes

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_world():
    s, _net, dbs, agents, router, io = build_world()
    return s, dbs, agents, router, io


def build_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    router = ShardRouter(list(NODES), replicas=8)
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase(partition_of=router.partition_of)
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SYNC_SERVICE_NAME, db)
        dbs[name] = db
    nic_c = net.attach("client")
    agent = serve_outcomes(RpcAgent(s, nic_c, default_timeout=0.5,
                                    demux=MessageDemux(nic_c)))
    io = ReplicaIO(agent, router, replication=3)
    return s, net, dbs, agents, router, io


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def bump_sv(db, times=1):
    """Commit ``times`` server-half mutations (version +1 each)."""
    for _ in range(times):
        action = AtomicAction()
        db.increment(action.id.path, "binder", str(UID), ["h1"])
        db.commit(action.id.path)


def bump_st(db, times=1, start=2):
    """Commit ``times`` state-half mutations (version +1 each)."""
    for i in range(times):
        action = AtomicAction()
        db.include(action.id.path, str(UID), f"t{start + i}")
        db.commit(action.id.path)


def probe(s, io, uids, nodes=NODES):
    """Each node's versions of ``uids``: one ``diff_partitions`` per
    node naming their partitions, with no digests."""
    request = diff_request({io.router.partition_of(u) for u in uids})
    listed, dark = run(s, io.diff_many({node: request for node in nodes}))
    assert not dark
    return {uid_text: versions_held(listed, uid_text, nodes)
            for uid_text in uids}


def probe_all(s, io, uid=UID):
    return probe(s, io, [str(uid)])[str(uid)]


def methods(rpc_log):
    return Counter(method for _who, _target, _service, method, _at in rpc_log)


def counts(versions):
    """The (server, state) counts of an entry's versions, digests dropped."""
    return tuple(count for count, _digest in versions)


def at(sv, st):
    """Probed versions with the given counts (any digest will do)."""
    return ((sv, 0), (st, 0))


def test_converge_is_probe_only_when_nothing_lags(rpc_log):
    s, dbs, agents, router, io = make_world()
    probes = probe_all(s, io)
    del rpc_log[:]
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("clean", 0, 0)
    # Equal versions are equal content: nothing crosses the wire.
    assert methods(rpc_log) == {}


def test_converge_merges_halves_from_different_sources():
    """The two version halves' maxima can live on different replicas;
    one converge pass must pull both into every laggard."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])        # a: (2, 1)
    bump_st(dbs["shard-b"])        # b: (1, 2)
    probes = probe_all(s, io)
    assert counts(probes["shard-a"]) == (2, 1)
    assert counts(probes["shard-b"]) == (1, 2)
    assert counts(probes["shard-c"]) == (1, 1)

    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"
    assert result.installed >= 2  # c took both halves; a and b each other's
    assert len({db.entry_versions(str(UID)) for db in dbs.values()}) == 1
    for db in dbs.values():
        assert counts(db.entry_versions(str(UID))) == (2, 2)
    # Content followed the versions: everyone has a's use count and b's
    # grown view.
    for db in dbs.values():
        snapshot = db.get_server_with_uses((0,), str(UID))
        view = db.get_view((0,), str(UID))
        db.server_db.locks.release_all(_probe_id())
        db.state_db.locks.release_all(_probe_id())
        assert dict(snapshot.uses["h1"]) == {"binder": 1}
        assert "t2" in view


def _probe_id():
    from repro.actions.action import ActionId
    return ActionId((0,))


def test_converge_defers_on_a_locked_target():
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    holder = AtomicAction()
    dbs["shard-c"].server_db.get_server(holder.id.path, UID)  # live local action
    probes = probe_all(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "deferred"
    dbs["shard-c"].abort(holder.id.path)
    probes = probe_all(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"


def test_converge_defers_on_a_locked_source():
    """A snapshot is never read past a live writer: the source answers
    ``"locked"`` inside its one dispatch and the pass retries later."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    probes = probe_all(s, io)
    writer = AtomicAction()
    dbs["shard-a"].increment(writer.id.path, "binder", str(UID), ["h1"])
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("deferred", 0, 0)
    dbs["shard-a"].commit(writer.id.path)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"


def test_converge_settles_when_the_probe_was_stale():
    """A target that caught up between probe and install is a no-op
    (version-gated), not a copy -- the caller's confirmation pass
    logic depends on the distinction."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    # b is probed, then catches up before the push.
    stale_probe = {"shard-b": dbs["shard-b"].entry_versions(str(UID))}
    bump_sv(dbs["shard-b"])
    result = run(s, io.converge_entry(
        str(UID), {"shard-a": dbs["shard-a"].entry_versions(str(UID))},
        stale_probe))
    assert result == ("settled", 0, 0)


def test_converge_reports_unknown_when_every_source_disclaims():
    s, dbs, agents, router, io = make_world()
    dbs["shard-a"].forget_entry(str(UID))
    result = run(s, io.converge_entry(
        str(UID), {"shard-a": at(5, 5)}, {"shard-c": at(1, 1)}))
    assert result == ("unknown", 0, 0)


def test_converge_defers_when_a_source_goes_dark_mid_pass():
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    probes = probe_all(s, io)
    agents["shard-a"]._nic.up = False  # dark between probe and fetch
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("deferred", 0, 0)


def test_converge_defers_without_a_reachable_source():
    s, dbs, agents, router, io = make_world()
    result = run(s, io.converge_entry(str(UID), {}, {"shard-c": at(1, 1)}))
    assert result == ("deferred", 0, 0)


def test_a_local_target_is_probed_and_installed_by_direct_call(rpc_log):
    """A resync names its own database as the target: the engine reads
    and writes it in-process -- it works with the host's RPC service
    gated out -- and only the peers see RPCs."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"], times=2)
    mine = dbs["shard-c"]
    agents["shard-c"].unregister(SYNC_SERVICE_NAME)  # nothing serves it
    own = {"shard-c": mine}
    probes = probe(s, io, [str(UID)], nodes=("shard-a", "shard-b"))
    result = run(s, io.converge_entry(
        str(UID), probes[str(UID)],
        {"shard-c": mine.entry_versions(str(UID))}, local=own))
    assert (result.outcome, result.installed) == ("copied", 1)
    assert mine.entry_versions(str(UID)) == dbs["shard-a"].entry_versions(
        str(UID))
    assert counts(mine.entry_versions(str(UID))) == (3, 1)
    assert rpc_log and all(target != "shard-c"
                           for _who, target, _service, _method, _at in rpc_log)


def test_converge_batches_round_trips_per_node(rpc_log):
    """Many lagging entries, one target: one snapshot read per fresher
    source, however many entries."""
    s, dbs, agents, router, io = make_world()
    uids = [str(UID)]
    for serial in range(2, 10):
        uid = Uid("sys", serial)
        uids.append(str(uid))
        for db in dbs.values():
            boot = AtomicAction()
            db.define_object(boot.id.path, str(uid), ["h1"], ["t1"])
            db.commit(boot.id.path)
    for uid_text in uids:
        action = AtomicAction()
        dbs["shard-a"].increment(action.id.path, "binder", uid_text, ["h1"])
        dbs["shard-a"].commit(action.id.path)
    probes = probe(s, io, uids)
    results = run(s, io.converge(
        {uid_text: (probes[uid_text], probes[uid_text])
         for uid_text in uids}))
    assert {r.outcome for r in results.values()} == {"copied"}
    assert methods(rpc_log) == {"diff_partitions": 3,
                       "read_entry_versioned_many": 1,
                       "guarded_install_entry": 2 * len(uids)}
    for db in dbs.values():
        assert all(counts(db.entry_versions(u)) == (2, 1) for u in uids)


def test_one_sources_installs_leave_together(rpc_log):
    """One source, two lagging remote targets: both installs are sent
    before either reply is awaited, so they leave at one instant."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    probes = probe_all(s, io)
    del rpc_log[:]
    result = run(s, io.converge_entry(
        str(UID), {"shard-a": probes["shard-a"]},
        {name: probes[name] for name in ("shard-b", "shard-c")}))
    assert (result.outcome, result.installed) == ("copied", 2)
    installs = [(target, at) for _who, target, _service, method, at
                in rpc_log if method == "guarded_install_entry"]
    assert sorted(target for target, _at in installs) == ["shard-b",
                                                          "shard-c"]
    assert len({at for _target, at in installs}) == 1


def test_no_copier_lock_at_a_source_outlives_a_dispatch():
    """While a copy of an entry is in flight its source holds no lock
    for the copier between dispatches: a client writing the entry at
    any instant of the copy is never refused on the copier's account."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])
    probes = probe_all(s, io)
    source = dbs["shard-a"]
    copy = s.spawn(io.converge_entry(str(UID), probes, probes))
    writes = 0
    while not copy.done:
        # Between any two events of the copy: a whole client write.
        assert not source.server_db.locks.owners()
        assert not source.state_db.locks.owners()
        writer = AtomicAction()
        try:
            source.increment(writer.id.path, "client", str(UID), ["h1"])
        except LockRefused:  # pragma: no cover - the regression
            raise AssertionError("the copier's lock refused a client write")
        source.commit(writer.id.path)
        writes += 1
        assert s.step(), "the copy must finish"
    assert writes > 4, "the copy spans several round trips"
    assert copy.result().outcome in ("copied", "settled")


def test_diff_many_lists_only_partitions_whose_digests_differ():
    s, dbs, agents, router, io = make_world()
    boot = AtomicAction()
    dbs["shard-b"].define_object(boot.id.path, "sys:9", ["h9"], ["t9"])
    dbs["shard-b"].commit(boot.id.path)
    agents["shard-c"]._nic.up = False
    request = diff_request(
        {router.partition_of(str(UID)), router.partition_of("sys:9")},
        dbs["shard-a"].partition_digests())
    probes, dark = run(s, io.diff_many({node: request for node in NODES}))
    assert dark == {"shard-c"}
    # Only shard-b's sys:9 differs from what shard-a holds.
    assert probes == {"sys:9": {"shard-b": dbs["shard-b"].entry_versions(
        "sys:9")}}


# -- the leased read plane: read_versioned -----------------------------------

RTT = 0.02  # FixedLatency(0.01) each way
TIMEOUT = 0.5  # the client agent's rpc timeout


def make_read_world(health=None):
    """Three replicas serving the client service; ``order`` is UID's
    read order, primary first."""
    s, net, dbs, agents, router, sync_io = build_world()
    for name in NODES:
        agents[name].register(SERVICE_NAME, dbs[name])
    if health is not None:
        health.clock = lambda: s.now
    io = ReplicaIO(sync_io.rpc, router, replication=3, health=health)
    order = router.view().read_order(UID, 3)
    return s, net, dbs, agents, io, order


def warm_tracker(**kwargs):
    """A tracker whose every replica has ``min_samples`` RTT samples:
    its hedge delay is ``latency_factor`` x RTT (0.08 here)."""
    health = PeerHealthTracker(lambda: 0.0, **kwargs)
    for _ in range(health.min_samples):
        for name in NODES:
            health.observe(name, RTT)
    return health


def hedged(io):
    return io.metrics.counter("replica_io.hedged_reads").value


def fill(s, io):
    """One cache fill; returns (result, when it returned)."""
    started = s.now
    result = run(s, io.read_versioned(UID))
    return result, s.now - started


def test_a_dark_primary_costs_the_hedge_delay_not_the_timeout():
    health = warm_tracker()
    s, net, dbs, agents, io, order = make_read_world(health)
    agents[order[0]]._nic.up = False
    result, took = fill(s, io)
    assert result is not None
    assert took == pytest.approx(4 * RTT + RTT)  # hedge delay + one RTT
    assert took < TIMEOUT
    assert hedged(io) == 1


def test_a_gray_primary_loses_the_race_to_the_replica(rpc_log):
    health = warm_tracker()
    s, net, dbs, agents, io, order = make_read_world(health)
    bump_st(dbs[order[1]])  # tell the replica's copy apart
    net.degrade(order[0], factor=10.0)  # answers, in 10 RTTs
    (copy, _epoch), took = fill(s, io)
    assert counts(copy.versions) == (1, 2)  # the replica's answer
    assert took == pytest.approx(5 * RTT)
    assert [target for _c, target, _s, _m, _at in rpc_log] == order[:2]
    # The loser's reply still lands, as a latency sample.
    before = health.hedge_after(order[0])
    s.run(until=s.now + 1.0)
    assert health.hedge_after(order[0]) > before


def test_a_locked_first_reply_falls_back_to_the_locking_read():
    health = warm_tracker()
    s, net, dbs, agents, io, order = make_read_world(health)
    writer = AtomicAction()  # a live action holds the primary's entry
    dbs[order[0]].increment(writer.id.path, "binder", str(UID), ["h1"])
    result, took = fill(s, io)
    assert result is None
    assert took == pytest.approx(RTT)
    assert hedged(io) == 0


def test_a_disclaiming_primary_hands_over_at_once():
    health = warm_tracker()
    s, net, dbs, agents, io, order = make_read_world(health)
    dbs[order[0]].forget_entry(str(UID))
    result, took = fill(s, io)
    assert result is not None
    assert took == pytest.approx(2 * RTT)  # the next request went at once
    assert hedged(io) == 0


def test_a_late_disclaimer_from_the_loser_still_feeds_the_tracker():
    """The replica serves the fill; the slow primary's disclaimer lands
    afterwards and counts as a (slow) answer, not a timeout."""
    health = warm_tracker()
    s, net, dbs, agents, io, order = make_read_world(health)
    dbs[order[0]].forget_entry(str(UID))
    net.degrade(order[0], factor=10.0)
    result, _took = fill(s, io)
    assert result is not None
    before = health.hedge_after(order[0])
    s.run(until=s.now + 1.0)
    assert health.hedge_after(order[0]) > before


def test_a_cold_tracker_does_not_hedge(rpc_log):
    health = PeerHealthTracker(lambda: 0.0)  # no samples yet
    s, net, dbs, agents, io, order = make_read_world(health)
    agents[order[0]]._nic.up = False
    result, took = fill(s, io)
    assert result is not None
    assert took == pytest.approx(TIMEOUT + RTT)  # today's wait
    assert [(target, at) for _c, target, _s, _m, at in rpc_log] == [
        (order[0], 0.0), (order[1], pytest.approx(TIMEOUT))]
    assert hedged(io) == 0


def test_without_a_tracker_the_walk_asks_one_replica_at_a_time(rpc_log):
    """No tracker, no hedge: each request goes out only once the one
    before it has failed -- the RPC sequence every deployment without
    peer health has always sent."""
    s, net, dbs, agents, io, order = make_read_world()
    agents[order[0]]._nic.up = False
    agents[order[1]]._nic.up = False
    dbs[order[2]].forget_entry(str(UID))
    result, took = fill(s, io)
    assert result is None  # two dark replicas and a disclaimer
    assert [(service, method, target, at)
            for _c, target, service, method, at in rpc_log] == [
        (SERVICE_NAME, "read_entry_versioned", order[0], 0.0),
        (SERVICE_NAME, "read_entry_versioned", order[1],
         pytest.approx(TIMEOUT)),
        (SERVICE_NAME, "read_entry_versioned", order[2],
         pytest.approx(2 * TIMEOUT))]
    assert took == pytest.approx(2 * TIMEOUT + RTT)
    assert hedged(io) == 0
