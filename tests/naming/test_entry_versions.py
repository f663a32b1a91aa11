"""Tests for the one freshness order: an entry half's ``(count, digest)``.

The count bumps identically on every replica of a committed action, so
two replicas that each committed a *different* write under a partial
partition sit at equal counts with different content.  The digest
names that content, so the versions differ too, and the lexicographic
order settles the pair on the greater digest -- one winner rule,
whichever trigger (a resync pulling into its own database, a repair
pushing to remote replicas) asks, with no phase beyond the version
gate every install already passes.
"""

import pytest

from repro.actions import AtomicAction
from repro.actions.action import ActionId
from repro.naming import GroupViewDatabase, ReplicaIO, ShardRouter
from repro.naming.group_view_db import SYNC_SERVICE_NAME, diff_request
from repro.naming.replica_io import versions_held
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.storage import Uid

from tests.conftest import serve_outcomes

UID = Uid("sys", 1)
NODES = ("shard-a", "shard-b", "shard-c")


def make_db(partition_of=None):
    db = GroupViewDatabase(partition_of=partition_of)
    boot = AtomicAction()
    db.define_object(boot.id.path, str(UID), ["h1"], ["t1"])
    db.commit(boot.id.path)
    return db


def commit_insert(db, host):
    """One committed Sv insert -- divergent content."""
    action = AtomicAction()
    db.insert(action.id.path, str(UID), host)
    db.commit(action.id.path)


def commit_increment(db, client_node):
    action = AtomicAction()
    db.increment(action.id.path, client_node, str(UID), ["h1"])
    db.commit(action.id.path)


def counts(versions):
    return tuple(count for count, _digest in versions)


def hosts_at(db):
    snapshot = db.get_server_with_uses((0,), str(UID))
    db.server_db.locks.release_all(ActionId((0,)))
    return list(snapshot.hosts)


# -- the database half ------------------------------------------------------


def test_a_version_names_its_content():
    a, b = make_db(), make_db()
    assert a.entry_versions(str(UID)) == b.entry_versions(str(UID))
    commit_insert(a, "hA")
    commit_insert(b, "hB")
    # Equal counts, different content: the versions tell them apart.
    assert counts(a.entry_versions(str(UID))) == counts(
        b.entry_versions(str(UID)))
    assert a.entry_versions(str(UID)) != b.entry_versions(str(UID))


def test_use_lists_are_digested_sorted_and_sv_in_order():
    a, b = make_db(), make_db()
    for node in ("n1", "n2"):
        commit_increment(a, node)
    for node in ("n2", "n1"):
        commit_increment(b, node)
    assert a.entry_versions(str(UID)) == b.entry_versions(str(UID))
    # Sv order is the binding preference: content, so digested as is.
    a, b = make_db(), make_db()
    for host in ("hA", "hB"):
        commit_insert(a, host)
    for host in ("hB", "hA"):
        commit_insert(b, host)
    assert a.entry_versions(str(UID)) != b.entry_versions(str(UID))


def test_abort_restores_the_version():
    db = make_db()
    before = db.entry_versions(str(UID))
    action = AtomicAction()
    db.increment(action.id.path, "binder", str(UID), ["h1"])
    db.include(action.id.path, str(UID), "t2")
    assert db.entry_versions(str(UID)) != before
    db.abort(action.id.path)
    assert db.entry_versions(str(UID)) == before


def test_versions_survive_a_crash_and_go_with_the_entry():
    db = make_db()
    commit_increment(db, "binder")
    before = db.entry_versions(str(UID))
    db.reset_volatile()
    assert db.entry_versions(str(UID)) == before  # stable, like the content
    assert db.forget_entry(str(UID)) is True
    assert db.entry_versions(str(UID)) == ((0, 0), (0, 0))


def test_an_equal_count_install_lands_only_over_a_smaller_digest():
    db, peer = make_db(), make_db()
    commit_insert(db, "hX")
    commit_insert(peer, "hY")
    mine, theirs = db.entry_versions(str(UID)), peer.entry_versions(str(UID))
    assert theirs > mine  # equal counts: the digest decides
    # A smaller equal-count copy never lands...
    assert db.guarded_install_entry(
        str(UID), ["h1", "hZ"], {"h1": {}, "hZ": {}}, ["t1"],
        ((mine[0][0], 0), mine[1])) is False
    assert hosts_at(db) == ["h1", "hX"]
    # ...the greater one does, and the version then names it.
    assert db.guarded_install_entry(
        str(UID), ["h1", "hY"], {"h1": {}, "hY": {}}, ["t1"],
        theirs) is True
    assert hosts_at(db) == ["h1", "hY"]
    assert db.entry_versions(str(UID)) == theirs


# -- the repair half --------------------------------------------------------


def make_world():
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    router = ShardRouter(list(NODES), replicas=8)
    dbs = {}
    for name in NODES:
        nic = net.attach(name)
        agent = RpcAgent(s, nic, demux=MessageDemux(nic))
        dbs[name] = make_db(router.partition_of)
        agent.register(SYNC_SERVICE_NAME, dbs[name])
    nic_c = net.attach("client")
    agent = serve_outcomes(RpcAgent(s, nic_c, default_timeout=0.5,
                                    demux=MessageDemux(nic_c)))
    io = ReplicaIO(agent, router, replication=3)
    return s, net, dbs, router, io


def run(s, gen):
    return s.run_until_settled(s.spawn(gen), until=100.0)


def probe(s, io, nodes=NODES):
    """Each node's versions of the entry: one ``diff_partitions`` per
    node naming its partition, with no digests."""
    request = diff_request([io.router.partition_of(str(UID))])
    listed, dark = run(s, io.diff_many({node: request for node in nodes}))
    assert not dark
    return versions_held(listed, str(UID), nodes)


def repairs(io):
    return io.metrics.counter_value("replica_io.divergence_repairs")


def test_identical_histories_need_no_repair():
    s, net, dbs, router, io = make_world()
    for db in dbs.values():
        commit_increment(db, "binder")  # same history everywhere
    probes = probe(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result == ("clean", 0, 0)
    assert repairs(io) == 0


def test_one_writers_split_commits_are_repaired():
    """One writer's two actions land on different replicas: equal
    counts and one writer's history everywhere, so nothing but the
    content tells the copies apart."""
    s, net, dbs, router, io = make_world()
    nic = net.attach("cA")
    writer = RpcAgent(s, nic, default_timeout=0.5, demux=MessageDemux(nic))

    def commit(node, host):
        action = AtomicAction(node="cA")
        yield writer.call(node, SYNC_SERVICE_NAME, "insert", action.id.path,
                          str(UID), host)
        yield writer.call(node, SYNC_SERVICE_NAME, "commit", action.id.path)

    for node, host in (("shard-a", "hX"), ("shard-b", "hY"),
                       ("shard-c", "hX")):
        run(s, commit(node, host))
    probes = probe(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    # hY's digest is the greater one: both hX copies are overwritten.
    assert result == ("copied", 2, 2)
    assert repairs(io) == 2
    for name, db in dbs.items():
        assert hosts_at(db) == ["h1", "hY"], name


def test_a_reset_replica_level_with_its_peer_is_not_recopied():
    """A crash loses locks and undo logs, never committed content: the
    recovered copy probes level and a pull leaves it alone."""
    s, net, dbs, router, io = make_world()
    target, peer = "shard-c", "shard-a"
    dbs["shard-b"].forget_entry(str(UID))  # keep the pair a pair
    dbs[target].reset_volatile()
    own = {target: dbs[target]}
    probes = probe(s, io, nodes=[peer])
    targets = {target: dbs[target].entry_versions(str(UID))}
    result = run(s, io.converge_entry(str(UID), probes, targets,
                                      local=own))
    assert result == ("clean", 0, 0)
    assert repairs(io) == 0


def test_partial_partition_divergence_is_detected_and_repaired():
    """Equal counts, three different writes: the greatest version's
    content lands everywhere in one pass."""
    s, net, dbs, router, io = make_world()
    for name, host in zip(NODES, ("hA", "hB", "hC")):
        commit_insert(dbs[name], host)
    probes = probe(s, io)
    assert len({counts(versions) for versions in probes.values()}) == 1
    winner = max(NODES, key=probes.__getitem__)
    expected = hosts_at(dbs[winner])

    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"
    assert result.repaired == result.installed == repairs(io) >= 2
    for name, db in dbs.items():
        assert hosts_at(db) == expected, name
        assert db.entry_versions(str(UID)) == probes[winner], name


def test_repair_defers_on_a_dark_replica():
    s, net, dbs, router, io = make_world()
    for name, host in zip(NODES, ("hA", "hB", "hC")):
        commit_insert(dbs[name], host)
    probes = probe(s, io)
    # One replica goes dark between the probe and the copy: whether it
    # holds the winner or needs it, the pass must defer.
    net.block("client", "shard-c")
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "deferred"
    net.unblock("client", "shard-c")
    probes = probe(s, io)
    result = run(s, io.converge_entry(str(UID), probes, probes))
    assert result.outcome == "copied"
    assert len({tuple(hosts_at(db)) for db in dbs.values()}) == 1


# -- one winner rule, whoever asks ------------------------------------------
#
# ``target`` is the replica under repair, ``peer`` the one it is
# compared with.  Each row prepares the two copies and names whose
# content the target must end up with.  The table is driven through a
# *pull* (the target is the caller's own database and the only one
# written -- what a shard resync does) and a *push* (both replicas are
# remote sources and targets): same verdict from both.


def _ahead(target, peer):
    commit_insert(target, "hTarget")


def _behind(target, peer):
    commit_insert(peer, "hPeer")


def _divergent(target, peer):
    commit_insert(target, "hTarget")
    commit_insert(peer, "hPeer")


def _identical(target, peer):
    commit_insert(target, "hShared")
    commit_insert(peer, "hShared")


def _greater_digest(target, peer):
    mine, theirs = target.entry_versions(str(UID)), peer.entry_versions(str(UID))
    assert counts(mine) == counts(theirs) and mine != theirs
    return "target" if mine > theirs else "peer"


WINNER_RULE = {
    "ahead": (_ahead, lambda target, peer: "target"),
    "behind": (_behind, lambda target, peer: "peer"),
    "equal-count-divergent": (_divergent, _greater_digest),
    "identical": (_identical, lambda target, peer: "target"),
}


@pytest.mark.parametrize("mode", ["pull", "push"])
@pytest.mark.parametrize("case", WINNER_RULE)
def test_one_winner_rule_for_pull_and_push(case, mode):
    prepare, rule = WINNER_RULE[case]
    s, net, dbs, router, io = make_world()
    order = router.view().write_set(str(UID), 3)
    peer, target = order[0], order[2]
    dbs[order[1]].forget_entry(str(UID))  # keep the pair a pair
    prepare(dbs[target], dbs[peer])
    survivor = rule(dbs[target], dbs[peer])
    content = {"peer": hosts_at(dbs[peer]), "target": hosts_at(dbs[target])}

    own = {target: dbs[target]} if mode == "pull" else None
    sources = targets = probe(s, io, nodes=[peer, target])
    if mode == "pull":
        # The caller reads its own database directly.
        targets = {target: dbs[target].entry_versions(str(UID))}
        del sources[target]
    result = run(s, io.converge_entry(str(UID), sources, targets, local=own))

    assert hosts_at(dbs[target]) == content[survivor]
    if mode == "push":
        # The peer is a target too: the pair converges in one pass.
        assert hosts_at(dbs[peer]) == content[survivor]
        assert (dbs[peer].entry_versions(str(UID))
                == dbs[target].entry_versions(str(UID)))
    else:
        # A pull never writes its sources; a losing peer pulls for
        # itself on its own sweep.
        assert hosts_at(dbs[peer]) == content["peer"]
    # A repair is an install over an equal-count divergent copy: one in
    # the divergent row, wherever its loser is a target.
    loser_written = mode == "push" or survivor == "peer"
    repaired = int(case == "equal-count-divergent" and loser_written)
    assert result.repaired == repairs(io) == repaired
