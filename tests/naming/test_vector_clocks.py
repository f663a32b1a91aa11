"""Tests for per-entry vector clocks and divergence repair.

Scalar (sv, st) write versions bump identically on every replica of a
committed action, so two replicas that each committed a *different*
write under a partial partition end up at the same scalar versions with
different content -- invisible to every scalar probe.  The per-writer
vector clocks exist to make exactly that state detectable, and the
ReplicaIO clock tie-break to make it repairable -- one winner rule,
whichever trigger (a resync pulling into its own database, a repair
pushing to remote replicas) asks.
"""

import pytest

from repro.actions import AtomicAction
from repro.naming import GroupViewDatabase, ReplicaIO, ShardRouter
from repro.naming.group_view_db import SYNC_SERVICE_NAME
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_db(caller=""):
    db = GroupViewDatabase()
    db.rpc_caller = caller
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1"], ["t1"])
    db.commit(boot.id.path)
    return db


def commit_increment(db, caller):
    db.rpc_caller = caller
    action = AtomicAction()
    db.increment(action.id.path, "binder", str(UID), ["h1"])
    db.commit(action.id.path)


def commit_insert(db, caller, host):
    """One committed Sv insert by ``caller`` -- divergent content."""
    db.rpc_caller = caller
    action = AtomicAction()
    db.insert(action.id.path, str(UID), host)
    db.commit(action.id.path)


# -- the database half ------------------------------------------------------


def test_commit_bumps_the_callers_clock_component():
    db = make_db(caller="boot")
    assert db.entry_clock(str(UID)) == {"boot": 1}
    commit_increment(db, "cA")
    commit_increment(db, "cA")
    commit_increment(db, "cB")
    assert db.entry_clock(str(UID)) == {"boot": 1, "cA": 2, "cB": 1}


def test_abort_does_not_bump_the_clock():
    db = make_db(caller="boot")
    db.rpc_caller = "cA"
    action = AtomicAction()
    db.increment(action.id.path, "binder", str(UID), ["h1"])
    db.abort(action.id.path)
    assert db.entry_clock(str(UID)) == {"boot": 1}


def test_clocks_are_volatile_and_forgettable():
    db = make_db(caller="boot")
    commit_increment(db, "cA")
    db.reset_volatile()
    assert db.entry_clock(str(UID)) == {}  # lost with the crash
    commit_increment(db, "cA")
    assert db.forget_entry(str(UID)) is True
    assert db.entry_clock(str(UID)) == {}


def test_install_merges_clocks_pointwise_max():
    db = make_db(caller="boot")
    sv, st = db.entry_versions(str(UID))
    installed = db.guarded_install_entry(
        str(UID), ["h1", "h2"], {"h1": {}, "h2": {}}, ["t1"],
        (sv + 1, st), vclock={"boot": 1, "peer": 3})
    assert installed is True
    assert db.entry_clock(str(UID)) == {"boot": 1, "peer": 3}


def test_force_install_overwrites_equal_version_content():
    db = make_db(caller="boot")
    versions = db.entry_versions(str(UID))
    # Version-gated: an equal-version install is a no-op...
    assert db.guarded_install_entry(
        str(UID), ["h9"], {"h9": {}}, ["t1"], versions) is False
    # ...unless forced (divergence repair installing the clock winner).
    assert db.guarded_install_entry(
        str(UID), ["h9"], {"h9": {}}, ["t1"], versions,
        vclock={"boot": 1, "cB": 1}, force=True) is True
    snapshot = db.get_server_with_uses((0,), str(UID))
    from repro.actions.action import ActionId
    db.server_db.locks.release_all(ActionId((0,)))
    assert list(snapshot.hosts) == ["h9"]
    # Forced installs never move the scalar versions backwards.
    assert db.entry_versions(str(UID)) == versions
    assert db.entry_clock(str(UID)) == {"boot": 1, "cB": 1}


# -- the repair half --------------------------------------------------------


def make_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    dbs, agents = {}, {}
    for name in NODES:
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic))
        db = make_db(caller="boot")
        agents[name].register(SYNC_SERVICE_NAME, db)
        dbs[name] = db
    nic_c = net.attach("client")
    agent = RpcAgent(s, nic_c, default_timeout=0.5,
                     demux=MessageDemux(nic_c))
    router = ShardRouter(list(NODES), replicas=8)
    io = ReplicaIO(agent, router, replication=3)
    return s, net, dbs, router, io


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def probe_all(s, io):
    probes, dark = run(s, io.probe_many({node: [str(UID)] for node in NODES}))
    assert not dark
    return probes[str(UID)]


def hosts_at(db):
    from repro.actions.action import ActionId
    snapshot = db.get_server_with_uses((0,), str(UID))
    db.server_db.locks.release_all(ActionId((0,)))
    return list(snapshot.hosts)


def repairs(io):
    return io.metrics.counter_value("replica_io.divergence_repairs")


def test_identical_histories_need_no_repair():
    s, net, dbs, router, io = make_world()
    for db in dbs.values():
        commit_increment(db, "cA")  # same writer, same history everywhere
    probes = probe_all(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("clean", 0, 0)
    assert repairs(io) == 0


def test_partial_partition_divergence_is_detected_and_repaired():
    """Equal scalars, different commit histories: the scalar probe says
    convergent, the clock phase says diverged -- and repairs it."""
    s, net, dbs, router, io = make_world()
    # Each side of the partition commits a different client's write:
    # every replica sits at the same (sv, st) with different content.
    commit_insert(dbs["shard-a"], "cA", "hA")
    commit_insert(dbs["shard-b"], "cB", "hB")
    commit_insert(dbs["shard-c"], "cC", "hC")
    probes = probe_all(s, io)
    assert len(set(probes.values())) == 1, "scalars must tie"

    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("copied", 0, 2)
    assert repairs(io) == 2
    # Concurrent clocks: the deterministic owner-order winner's content
    # lands everywhere, with the pointwise-max merged clock.
    winner = router.view().write_set(str(UID), 3)[0]
    expected = hosts_at(dbs[winner])
    merged = {"boot": 1, "cA": 1, "cB": 1, "cC": 1}
    for name, db in dbs.items():
        assert hosts_at(db) == expected, name
        assert db.entry_clock(str(UID)) == merged, name


def make_stale(db, versions):
    """Same scalar versions, older content, a *subset* clock -- state
    installed, clock left behind: the post-restore shape after a
    scalar-only catch-up."""
    assert db.guarded_install_entry(
        str(UID), ["hStale"], {"hStale": {}}, ["t1"], versions,
        force=True) is True


def test_dominant_clock_wins_over_owner_order():
    s, net, dbs, router, io = make_world()
    order = router.view().write_set(str(UID), 3)
    follower = order[0]          # first in owner order, but dominated
    leader = order[1]            # saw a superset of commit history
    commit_insert(dbs[leader], "cA", "hLeader")
    versions = dbs[leader].entry_versions(str(UID))
    make_stale(dbs[follower], versions)  # missed cA's commit
    make_stale(dbs[order[2]], versions)

    probes = probe_all(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"
    for name, db in dbs.items():
        assert hosts_at(db) == ["h1", "hLeader"], name
        assert db.entry_clock(str(UID)) == {"boot": 1, "cA": 1}, name


def test_only_replicas_that_differ_from_the_merged_clock_are_repaired():
    """Two replicas with identical histories dominate a third: one real
    repair, and the count says one -- the winner's twin is not
    re-installed just for sitting at the same versions."""
    s, net, dbs, router, io = make_world()
    commit_insert(dbs["shard-a"], "cA", "hA")
    commit_insert(dbs["shard-b"], "cA", "hA")
    make_stale(dbs["shard-c"], dbs["shard-a"].entry_versions(str(UID)))
    probes = probe_all(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("copied", 0, 1)
    assert repairs(io) == 1
    for name, db in dbs.items():
        assert hosts_at(db) == ["h1", "hA"], name
        assert db.entry_clock(str(UID)) == {"boot": 1, "cA": 1}, name


def test_repair_defers_on_a_dark_replica():
    s, net, dbs, router, io = make_world()
    commit_insert(dbs["shard-a"], "cA", "hA")
    commit_insert(dbs["shard-b"], "cB", "hB")
    commit_insert(dbs["shard-c"], "cC", "hC")
    probes = probe_all(s, io)
    # One level replica goes dark between the scalar probe and the
    # clock probe: the pass must defer, not repair a partial group.
    net.block("client", "shard-c")
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "deferred"
    assert repairs(io) == 0
    net.unblock("client", "shard-c")
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"


# -- one winner rule, whoever asks ------------------------------------------
#
# ``target`` is the replica under repair, ``peer`` the one it is
# compared with (first in the entry's owner order, so a tie between
# concurrent histories goes to the peer).  Each row prepares the two
# histories at equal scalar versions and names whose content the target
# must end up with.  The table is driven through a *pull* (the target
# is the caller's own database and the only one written -- what a shard
# resync does) and a *push* (both replicas are remote sources and
# targets -- what read-repair does): same verdict from both.


def _dominates(target, peer):
    commit_insert(target, "cA", "hTarget")
    make_stale(peer, target.entry_versions(str(UID)))


def _dominated(target, peer):
    commit_insert(peer, "cA", "hPeer")
    make_stale(target, peer.entry_versions(str(UID)))


def _concurrent(target, peer):
    commit_insert(target, "cT", "hTarget")
    commit_insert(peer, "cP", "hPeer")


def _identical(target, peer):
    commit_insert(target, "cA", "hShared")
    commit_insert(peer, "cA", "hShared")


WINNER_RULE = {
    "dominates": (_dominates, "target"),
    "dominated": (_dominated, "peer"),
    "concurrent -> owner order": (_concurrent, "peer"),
    "identical": (_identical, "target"),
}


@pytest.mark.parametrize("mode", ["pull", "push"])
@pytest.mark.parametrize("case", WINNER_RULE)
def test_one_winner_rule_for_pull_and_push(case, mode):
    prepare, survivor = WINNER_RULE[case]
    s, net, dbs, router, io = make_world()
    order = router.view().write_set(str(UID), 3)
    peer, target = order[0], order[2]
    dbs[order[1]].forget_entry(str(UID))  # keep the pair a pair
    prepare(dbs[target], dbs[peer])
    content = {"peer": hosts_at(dbs[peer]), "target": hosts_at(dbs[target])}
    merged = {**dbs[peer].entry_clock(str(UID)),
              **dbs[target].entry_clock(str(UID))}

    pair = {peer: [str(UID)], target: [str(UID)]}
    own = {target: dbs[target]} if mode == "pull" else None
    probes, _dark = run(s, io.probe_many(pair, local=own))
    sources = targets = probes[str(UID)]
    if mode == "pull":
        targets = {target: sources.pop(target)}
    result = run(s, io.converge_entry(str(UID), sources, targets, local=own))

    assert hosts_at(dbs[target]) == content[survivor]
    assert dbs[target].entry_clock(str(UID)) == merged
    if mode == "push":
        # The peer is a target too: the pair converges in one pass.
        assert hosts_at(dbs[peer]) == content[survivor]
        assert dbs[peer].entry_clock(str(UID)) == merged
    else:
        # A pull never writes its sources; a losing peer pulls for
        # itself on its own sweep.
        assert hosts_at(dbs[peer]) == content["peer"]
    repaired = {"identical": 0, "dominates": int(mode == "push")}.get(case, 1)
    assert result.repaired == repairs(io) == repaired
