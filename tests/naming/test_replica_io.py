"""Unit tests for the ReplicaIO engine's sync plane.

The client plane (fenced fan-out writes, failover reads) is exercised
end-to-end by ``test_replicated_client.py``, ``test_read_repair.py``
and ``test_fencing.py``; these tests pin the sync-plane contract every
maintenance daemon (resync, migration, repair) now shares:
``converge``'s outcomes, its multi-source version-half merging, its
batching (round trips per node, not per entry), the local target a
resync uses for its own database, and the rule that no copier lock
ever spans the wire.
"""

from collections import Counter

from repro.actions import AtomicAction
from repro.actions.errors import LockRefused
from repro.naming import GroupViewDatabase, ReplicaIO, ShardRouter
from repro.naming.group_view_db import SYNC_SERVICE_NAME
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = GroupViewDatabase()
        boot = AtomicAction()
        db.define_object(boot.id.path, str(UID), ["h1"], ["t1"])
        db.commit(boot.id.path)
        agents[name].register(SYNC_SERVICE_NAME, db)
        dbs[name] = db
    nic_c = net.attach("client")
    agent = RpcAgent(s, nic_c, default_timeout=0.5,
                     demux=MessageDemux(nic_c))
    router = ShardRouter(list(NODES), replicas=8)
    io = ReplicaIO(agent, router, replication=3)
    return s, dbs, agents, router, io


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


def probe_all(s, io, uid=UID):
    probes, dark = run(s, io.probe_many({node: [str(uid)] for node in NODES}))
    assert not dark
    return probes[str(uid)]


def methods(rpc_log):
    return Counter(method for _who, _target, _service, method, _at in rpc_log)


def test_converge_is_probe_only_when_nothing_lags(rpc_log):
    s, dbs, agents, router, io = make_world()
    probes = probe_all(s, io)
    del rpc_log[:]
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("clean", 0, 0)
    # No snapshot read, no install: only the clock tie-break's probes.
    assert methods(rpc_log) == {"entry_clocks_many": 3}


def test_converge_merges_halves_from_different_sources():
    """The two version halves' maxima can live on different replicas;
    one converge pass must pull both into every laggard."""
    s, dbs, agents, router, io = make_world()
    bump_sv(dbs["shard-a"])        # a: (2, 1)
    bump_st(dbs["shard-b"])        # b: (1, 2)
    probes = probe_all(s, io)
    assert probes["shard-a"] == (2, 1)
    assert probes["shard-b"] == (1, 2)
    assert probes["shard-c"] == (1, 1)

    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"
    assert result.installed >= 2  # c took both halves; a and b each other's
    for db in dbs.values():
        assert db.entry_versions(str(UID)) == (2, 2)
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
    stale_probe = {"shard-b": (1, 1)}  # but b catches up before the push
    bump_sv(dbs["shard-b"])
    result = run(s, io.converge_entry(
        str(UID), {"shard-a": (2, 1)}, stale_probe))
    assert result == ("settled", 0, 0)


def test_converge_reports_unknown_when_every_source_disclaims():
    s, dbs, agents, router, io = make_world()
    dbs["shard-a"].forget_entry(str(UID))
    result = run(s, io.converge_entry(
        str(UID), {"shard-a": (5, 5)}, {"shard-c": (1, 1)}))
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
    result = run(s, io.converge_entry(str(UID), {}, {"shard-c": (1, 1)}))
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
    probes, dark = run(s, io.probe_many(
        {node: [str(UID)] for node in NODES}, local=own))
    assert not dark
    sources = probes[str(UID)]
    result = run(s, io.converge_entry(
        str(UID), sources, {"shard-c": sources.pop("shard-c")}, local=own))
    assert (result.outcome, result.installed) == ("copied", 1)
    assert mine.entry_versions(str(UID)) == (3, 1)
    assert rpc_log and all(target != "shard-c"
                           for _who, target, _service, _method, _at in rpc_log)


def test_converge_batches_round_trips_per_node(rpc_log):
    """Many lagging entries, one target: one snapshot read per fresher
    source and one clock probe per level node, however many entries."""
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
    probes, _dark = run(s, io.probe_many({node: uids for node in NODES}))
    results = run(s, io.converge(
        {uid_text: (probes[uid_text], probes[uid_text])
         for uid_text in uids}))
    assert {r.outcome for r in results.values()} == {"copied"}
    assert methods(rpc_log) == {"entry_versions_many": 3,
                       "read_entry_versioned_many": 1,
                       "guarded_install_entry": 2 * len(uids),
                       "entry_clocks_many": 3}
    for db in dbs.values():
        assert all(db.entry_versions(u) == (2, 1) for u in uids)


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


def test_collect_uids_unions_reachable_peers():
    s, dbs, agents, router, io = make_world()
    boot = AtomicAction()
    dbs["shard-b"].define_object(boot.id.path, "sys:9", ["h9"], ["t9"])
    dbs["shard-b"].commit(boot.id.path)
    agents["shard-c"]._nic.up = False
    universe, answered = run(s, io.collect_uids(NODES))
    assert answered == 2
    assert universe == {str(UID), "sys:9"}
