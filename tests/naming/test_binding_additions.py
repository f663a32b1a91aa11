"""Tests for binding behaviours added during implementation: the
read-only rotation spread, parked binders and the one-attempt unbind."""

import zlib

import pytest

from repro.actions import ActionStatus, AtomicAction
from repro.actions.errors import LockRefused
from repro.cluster import Janitor, Node
from repro.naming.shard_router import ShardRouter
from repro.naming.sharded_client import ShardedGroupViewDbClient

from tests.naming.test_binding import UID, World
from repro.naming.binding import IndependentTopLevelBinding, StandardBinding


def test_read_only_rotation_is_stable_per_client():
    world_a = World(StandardBinding)
    action1 = AtomicAction(node="client")
    first = world_a.run_bind(action1, read_only=True)
    world_b = World(StandardBinding)
    action2 = AtomicAction(node="client")
    second = world_b.run_bind(action2, read_only=True)
    assert first.bound_hosts == second.bound_hosts  # same client -> same node


def test_read_only_rotation_spreads_across_client_names():
    """Different client names should not all pick the same server."""
    sv = ("h1", "h2", "h3")
    chosen = set()
    for i in range(12):
        name = f"client{i}"
        rotation = zlib.crc32(name.encode()) % len(sv)
        chosen.add(sv[rotation])
    assert len(chosen) > 1


def test_read_only_rotation_falls_through_dead_convenient_node():
    world = World(StandardBinding, dead=("h2",))
    # Find a client name whose rotation starts at the dead h2.
    name = next(f"c{i}" for i in range(100)
                if zlib.crc32(f"c{i}".encode()) % 3 == 1)
    world.scheme.client_node = name
    action = AtomicAction(node=name)
    outcome = world.run_bind(action, read_only=True)
    assert outcome.bound_hosts == ["h3"]  # next in the rotated order
    assert outcome.failed_hosts == ["h2"]


def test_update_intent_lock_blocks_second_binder_immediately():
    """for_update=True: a second concurrent binder *older* than the
    holder is refused at the read, not at a doomed promotion later (a
    younger one parks: see the next test)."""
    world = World(IndependentTopLevelBinding)
    younger = (10**9,)  # a holder younger than any binder's action
    world.db.server_db.get_server_with_uses(younger, UID, for_update=True)
    action = AtomicAction(node="client")
    from repro.actions import LockRefused
    with pytest.raises(LockRefused):
        world.run_bind(action)
    assert world.scheduler.now < 0.1  # one round trip: no wait
    world.db.server_db.abort(younger)
    action2 = AtomicAction(node="client")
    outcome = world.run_bind(action2)
    assert outcome.bound


def test_a_younger_binder_parks_behind_the_holder_then_binds():
    """Binders serialise by waiting: the younger one's update-intent
    read parks at the name node until the older holder ends."""
    world = World(IndependentTopLevelBinding)
    holder = AtomicAction()
    world.db.server_db.get_server_with_uses(
        holder.id.path, UID, for_update=True)
    world.scheduler.schedule(
        0.2, lambda: world.db.server_db.abort(holder.id.path))
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    assert outcome.bound and world.scheduler.now > 0.2
    locks = world.db.server_db.locks
    assert (locks.parks, locks.refusals) == (1, 0)
    assert world.db.metrics.counter_value(
        "server_db.locks_parked.increment") == 1
    [waited] = world.db.metrics.histogram("lock_wait").values
    assert 0.17 < waited < 0.2
    world.run_commit(action)
    assert not locks.owners() and not locks.waiters()


def test_a_parked_binder_is_refused_at_half_the_rpc_timeout():
    world = World(IndependentTopLevelBinding)
    holder = AtomicAction()
    world.db.server_db.get_server_with_uses(
        holder.id.path, UID, for_update=True)
    action = AtomicAction(node="client")
    from repro.actions import LockRefused
    with pytest.raises(LockRefused):
        world.run_bind(action)
    bound = world.db_agent.default_timeout / 2
    assert bound < world.scheduler.now < world.client_agent.default_timeout
    assert world.db.metrics.counter_value(
        "server_db.locks_refused.increment") == 1
    world.db.abort(action.id.path)
    world.db.abort(holder.id.path)
    locks = world.db.server_db.locks
    assert not locks.owners() and not locks.waiters()


def _bound_client():
    """A world whose client ``c1`` runs its own outcomes table, bound
    to UID with a committed bind."""
    world = World(IndependentTopLevelBinding)
    client = Node(world.scheduler, world.network, "c1")
    world.db_client = ShardedGroupViewDbClient(client.rpc, ShardRouter(["db"]))
    world.scheme = IndependentTopLevelBinding(world.db_client, "c1",
                                              metrics=world.metrics)
    action = AtomicAction(node="c1")
    outcome = world.run_bind(action)
    assert world.run_commit(action) is ActionStatus.COMMITTED
    return world, client, outcome


def _janitor_rounds(world, janitor, rounds):
    for _ in range(rounds):
        world.scheduler.run_until_settled(
            world.scheduler.spawn(janitor.run_once()), until=100.0)


def test_unbind_retries_through_transient_lock_conflict():
    """The unbind's one Decrement is refused by a transient conflict (a
    Remove holds the entry's write lock, which a Decrement cannot
    share); the retry is the name node's janitor.  Its rounds leave the
    entry alone while the lock is held, and once it is released they
    settle the count to zero while the client lives."""
    world, client, outcome = _bound_client()
    holder = AtomicAction()
    world.db.server_db.remove(holder.id.path, UID, "h3")
    with pytest.raises(LockRefused):
        world.run_unbind(outcome)

    janitor = Janitor(Node(world.scheduler, world.network, "janitor"),
                      world.db)
    _janitor_rounds(world, janitor, 3)  # the entry is locked throughout
    world.db.server_db.abort(holder.id.path)
    assert world.uses_now()["h1"] == {"c1": 1}
    _janitor_rounds(world, janitor, 2)  # one sees the version, one lowers
    assert world.uses_now() == {"h1": {}, "h2": {}, "h3": {}}
    assert not client.crashed


def test_unbind_gives_up_after_bounded_attempts():
    """The unbind makes one Decrement attempt.  Refused, it raises,
    aborts its action -- the name node holds no part of it -- and leaves
    the count, an orphan for the janitor; the client's table already
    holds no use once that action has ended."""
    world, client, outcome = _bound_client()
    holder = AtomicAction()  # never released during the unbind
    world.db.server_db.remove(holder.id.path, UID, "h2")
    with pytest.raises(LockRefused):
        world.run_unbind(outcome)
    assert world.db.metrics.counter_value(
        "server_db.locks_refused.decrement") == 1
    assert not world.db.parts()  # the holder has no coordinator ref
    world.db.server_db.abort(holder.id.path)
    assert world.uses_now()["h1"] == {"c1": 1}
    assert client.outcomes.outcomes([], [str(UID)])[2] == [{}]
