"""Anti-entropy by partition digest, at the shard-host level.

Every shard database keeps one digest per partition it holds entries
of, recomputed only after one of them changed, and a sync pass sends
each peer its digests for the partitions the two share.  These tests
pin what that buys and what it must still find: an in-sync pass
computes no entry version at all, however many entries there are; one
pass levels every kind of divergence a replica can carry; and an
incoming owner's freshly copied arcs survive a pass mid-transition.
"""

import pytest

from repro.actions import AtomicAction
from repro.naming import group_view_db, object_server_db, object_state_db
from repro.naming.db_base import digest
from repro.naming.shard_router import RingTransition

from tests.integration.test_convergence_triggers import sync_rpcs
from tests.integration.test_sharded_nameserver import build


def count_digests(monkeypatch):
    """Count every ``db_base.digest`` call the naming databases make."""
    calls = []

    def counting(content):
        calls.append(1)
        return digest(content)

    for module in (group_view_db, object_server_db, object_state_db):
        monkeypatch.setattr(module, "digest", counting)
    return calls


def one_pass(system, host):
    """Run one sync pass of ``host``'s resync manager to completion."""
    resyncer = system.shard_resyncers[host]
    return system.run_until(system.scheduler.spawn(resyncer._sync_pass()),
                            timeout=10.0)


def commit(db, mutate):
    action = AtomicAction()
    mutate(action.id.path)
    db.commit(action.id.path)


@pytest.mark.parametrize("objects", [12, 48])
def test_an_in_sync_pass_computes_no_entry_version(monkeypatch, rpc_log,
                                                   objects):
    system, _runtimes, uids = build(shards=3, objects=objects,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=None)
    hosts = system.shard_router.nodes
    for host in hosts:  # the first pass computes every digest once
        assert one_pass(system, host) is False
    calls = count_digests(monkeypatch)
    del rpc_log[:]
    for host in hosts:
        assert one_pass(system, host) is False
    assert calls == [], "an in-sync pass must compare cached digests only"
    # One verb per peer, and nothing else on the wire.
    assert sorted(method for _peer, method in sync_rpcs(rpc_log)) == \
        ["diff_partitions"] * (len(hosts) * (len(hosts) - 1))


def test_one_pass_levels_every_kind_of_divergence():
    system, _runtimes, uids = build(shards=3, objects=12,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=None)
    router, dbs = system.shard_router, system.db.shards
    me = router.nodes[0]
    mine = [str(uid) for uid in uids if me in router.preference_list(uid, 2)]
    missing, behind, diverged = mine[:3]

    def peer_of(uid_text):
        return next(n for n in router.preference_list(uid_text, 2) if n != me)

    # A replica missing a define, and one behind by a count.
    dbs[me].forget_entry(missing)
    commit(dbs[peer_of(behind)],
           lambda path: dbs[peer_of(behind)].include(path, behind, "x1"))
    # An equal-count divergence: each side commits its own write, and
    # this host holds the smaller digest, so the peer's copy must win.
    ours, theirs = sorted(["x2", "x3"], key=lambda host: digest(
        ["a1", "a2", host]))
    commit(dbs[me], lambda path: dbs[me].include(path, diverged, ours))
    other = dbs[peer_of(diverged)]
    commit(other, lambda path: other.include(path, diverged, theirs))
    winner = other.entry_versions(diverged)
    assert dbs[me].entry_versions(diverged)[1][0] == winner[1][0]
    assert dbs[me].entry_versions(diverged) < winner
    # A local leftover partition: an entry no replica set here includes.
    leftover = next(str(uid) for uid in uids
                    if me not in router.preference_list(uid, 2))
    source = dbs[router.preference_list(leftover, 2)[0]]
    assert dbs[me].install_entry(leftover, ["a1", "a2"], {}, ["a1", "a2"],
                                 source.entry_versions(leftover))

    assert one_pass(system, me) is True
    for uid_text in (missing, behind, diverged):
        assert dbs[me].entry_versions(uid_text) == \
            dbs[peer_of(uid_text)].entry_versions(uid_text), uid_text
    assert dbs[me].entry_versions(diverged) == winner
    assert not dbs[me].knows(leftover), "the leftover must be collected"
    assert one_pass(system, me) is False, "one pass must level everything"


def test_an_incoming_owner_mid_transition_is_left_alone():
    system, _runtimes, uids = build(shards=3, objects=12,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=None)
    router, dbs = system.shard_router, system.db.shards
    # Stage a real transition that moves some partition onto a host
    # that does not own it under the live ring, and seed that host with
    # the entry the way a copy pass would.
    target = router.clone()
    target.remove_node(router.nodes[0])
    moved = router.moved_partitions(target, 2)
    uid_text, incoming = next(
        (str(uid), host) for uid in uids
        if router.partition_of(uid) in moved
        for host in target.preference_list(uid, 2)
        if host not in router.preference_list(uid, 2))
    source = dbs[router.preference_list(uid_text, 2)[0]]
    assert dbs[incoming].install_entry(
        uid_text, ["a1", "a2"], {}, ["a1", "a2"],
        source.entry_versions(uid_text))
    router.transition = RingTransition(target, epoch=target.epoch + 1,
                                       partitions=frozenset(moved))
    one_pass(system, incoming)
    assert dbs[incoming].knows(uid_text), \
        "mid-transition a pass must not collect an incoming owner's copy"
    assert dbs[incoming].entry_versions(uid_text) == \
        source.entry_versions(uid_text)
