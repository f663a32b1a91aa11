"""Tests for binding behaviours added during implementation: the
read-only rotation spread and the unbind retry loop."""

import zlib

import pytest

from repro.actions import ActionStatus, AtomicAction

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


def test_unbind_retries_through_transient_lock_conflict():
    world = World(IndependentTopLevelBinding)
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    status = world.run_commit(action)
    assert status is ActionStatus.COMMITTED

    # Hold the entry's write lock for a while (a Remove, which a
    # Decrement cannot share), then release: the unbind must retry
    # through the conflict and still decrement.
    holder = AtomicAction()
    world.db.server_db.remove(holder.id.path, UID, "h3")
    world.scheduler.schedule(0.12, lambda: world.db.server_db.abort(
        holder.id.path))
    world.run_unbind(outcome)
    assert world.uses_now() == {"h1": {}, "h2": {}, "h3": {}}


def test_unbind_gives_up_after_bounded_attempts():
    world = World(IndependentTopLevelBinding)
    world.scheme.unbind_attempts = 2
    world.scheme.unbind_backoff = 0.01
    action = AtomicAction(node="client")
    outcome = world.run_bind(action)
    world.run_commit(action)

    holder = AtomicAction()  # never released during the retries
    world.db.server_db.remove(holder.id.path, UID, "h2")
    world.run_unbind(outcome)
    gave_up = world.metrics.counter_value(
        "binding.independent.unbind_gave_up")
    assert gave_up == 1
    # The counters remain (orphans) -- exactly what the cleaner repairs.
    world.db.server_db.abort(holder.id.path)
    assert world.uses_now()["h1"] == {"client": 1}
