"""A name node that restarts between a write's acknowledgement and the decision.

A name node's acknowledgement of a write is its vote, so ``commit`` is
the next thing it hears.  A replicated shard that restarts in between
is gated out until resync has copied its peers' committed entries.  An
unreplicated name node -- the paper's, or a replication-1 ring shard --
follows the restart rule (``GroupViewDatabase.restart``): it aborts
every part that wrote nothing there and keeps its written parts, which
are the votes its acknowledgements gave.  The told ``commit`` then
finds the acknowledged write and makes it permanent; were the commit
lost, the janitor would ask the coordinator and end the part as it
decided.
"""

import pytest

from repro import SingleCopyPassive
from repro.actions import AtomicAction

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
    """The paper's name node, a ring of one: the restart keeps the
    acknowledged Exclude, ``commit`` finds it and makes it permanent
    -- as ``prepare`` then ``commit`` did before."""
    system, client, uid = build()
    assert exclude_over_a_restart(system, client, uid,
                                  system.db.shards["namenode"],
                                  system.nodes["namenode"]) == ["t1"]


def test_an_unreplicated_shard_keeps_an_acknowledged_exclude_over_a_restart():
    """Replication 1 on a ring: no peer holds a copy, and the shard
    follows the same restart rule as the paper's node.  The action
    reports committed, t1 holds version 2, and t2 -- silent, never
    written -- is gone from ``St``."""
    system, client, uid = build(nameserver_shards=2)
    home = system.shard_router.shard_for(uid)
    assert exclude_over_a_restart(system, client, uid, system.db.shards[home],
                                  system.nodes[home]) == ["t1"]


@pytest.mark.parametrize("shards", [1, 2], ids=["paper", "ring"])
def test_a_restart_releases_a_read_only_part_and_keeps_a_written_one(shards):
    """The restart rule itself: a part that only read is aborted (its
    locks go), a written part keeps its lock and undo entries until
    its outcome arrives."""
    system, client, uid = build(nameserver_shards=shards)
    home = system.shard_router.shard_for(uid)
    db, node = system.db.shards[home], system.nodes[home]
    outcomes = client.node.outcomes
    reader = outcomes.path(AtomicAction(node="c1"))
    writer = outcomes.path(AtomicAction(node="c1"))
    db.get_view(reader, str(uid))
    db.increment(writer, "c1", str(uid), ["s1"])

    node.crash()
    node.recover()
    assert not db.state_db.locks.is_locked(("st", uid))
    assert db.server_db.wrote(writer)
    assert db.server_db.locks.is_locked(("sv", uid))

    db.commit(writer)  # the told outcome
    assert not db.server_db.locks.is_locked(("sv", uid))
    assert db.get_server_with_uses((0,), str(uid)).uses["s1"] == {"c1": 1}
    system._release_probe_locks()
