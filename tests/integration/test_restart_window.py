"""A name node that restarts between a write's acknowledgement and the decision.

A name node's acknowledgement of a write is its vote, so ``commit`` is
the next thing it hears.  If it crashed *and recovered* in between, what
it acknowledged was provisional and went with its undo log: ``commit``
finds nothing to make permanent and says so to nobody.  The window is
not new -- before, a restart ahead of ``prepare`` drew a ``readonly``
vote, and one after it made ``commit`` the same no-op -- and these tests
say where it is closed and where it is open, not fix it (an incarnation
number in the acknowledgement, checked by ``commit``: ROADMAP item 8).
"""

import pytest

from repro import SingleCopyPassive

from tests.conftest import (
    add_work,
    arm_crash_after_write_ack,
    assert_shard_replicas_agree,
    build_system,
    get_work,
)


def build(**config):
    return build_system(policy=SingleCopyPassive(), sv=("s1",),
                        st=("t1", "t2"), enable_recovery_managers=False,
                        **config)


# Back before the next message of the action can arrive (one hop: 0.01).
RESTART = 0.005


def exclude_over_a_restart(system, client, uid, db, node):
    """One committing add whose ``write_shadow`` finds t2 silent, the
    name node restarting right after it acknowledged the Exclude."""
    system.nodes["t2"].crash()
    fired = arm_crash_after_write_ack(system, db, node, "exclude",
                                      back_after=RESTART)
    result = system.run_transaction(client, add_work(uid, 1))
    del db.exclude
    assert fired and not node.crashed
    assert result.committed
    assert system.store_versions(uid) == {"t1": 2}
    return system.db_st(uid)


def test_replicated_shard_restarting_after_a_write_ack_is_levelled_by_resync():
    """Replication 2: the restarted replica is gated out until
    ``ShardResync`` has copied the survivor's committed entry, so the
    acknowledged Increment it forgot is back before it serves."""
    system, client, uid = build_system(
        sv=("s1", "s2"), st=("t1",), scheme="independent",
        nameserver_shards=3, nameserver_replication=2)
    victim = system.shard_router.preference_list(uid, 2)[0]
    fired = arm_crash_after_write_ack(
        system, system.db.shards[victim], system.nodes[victim], "increment",
        back_after=RESTART)
    result = system.run_transaction(client, add_work(uid, 1))
    del system.db.shards[victim].increment
    assert fired
    attempts = 1
    while not result.committed and attempts < 3:
        result = system.run_transaction(client, add_work(uid, 1))
        attempts += 1
    assert result.committed

    system.run(until=system.scheduler.now + 30.0)
    assert system.shard_resyncers[victim].serving
    assert_shard_replicas_agree(system, uid)
    assert system.run_transaction(client, get_work(uid)).value == result.value


def test_the_papers_name_node_keeps_an_acknowledged_exclude_over_a_restart():
    """The single name node's database is the harness's (the paper
    treats the name service as always available): its undo log survives
    the restart, ``commit`` finds the Exclude and makes it permanent --
    as ``prepare`` then ``commit`` did before."""
    system, client, uid = build()
    assert exclude_over_a_restart(system, client, uid, system.db,
                                  system.nodes["namenode"]) == ["t1"]


@pytest.mark.xfail(strict=True, reason=(
    "an unreplicated shard's restart drops the acknowledged Exclude with "
    "its undo log and commit says nothing: docs/architecture.md, 'Ledgers "
    "that are not zero'; ROADMAP item 8"))
def test_an_unreplicated_shard_keeps_an_acknowledged_exclude_over_a_restart():
    """Replication 1 on a ring: recovery resets the shard's volatile
    state and no peer holds a copy.  The action reports committed, t1
    holds version 2, and t2 -- silent, never written -- is still listed
    in ``St``.  Lost the same way when the name node was still asked to
    ``prepare`` (it answered ``readonly``)."""
    system, client, uid = build(nameserver_shards=2)
    home = system.shard_router.shard_for(uid)
    assert exclude_over_a_restart(system, client, uid, system.db.shards[home],
                                  system.nodes[home]) == ["t1"]
