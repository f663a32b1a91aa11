"""Tests for multi-mode locking, the paper's section-4 lock semantics."""

import pytest

from repro.actions import (
    ActionId,
    LockManager,
    LockMode,
    LockRefused,
    PromotionRefused,
    lock_compatible,
)

from tests.conftest import lock_holders, mode_held

A1 = ActionId((1,))
A2 = ActionId((2,))
A3 = ActionId((3,))
A1_CHILD = ActionId((1, 10))
A1_GRANDCHILD = ActionId((1, 10, 20))


def test_compatibility_matrix_matches_paper():
    R, W, X = LockMode.READ, LockMode.WRITE, LockMode.EXCLUDE_WRITE
    assert lock_compatible(R, R)
    assert not lock_compatible(R, W)
    assert lock_compatible(R, X)
    assert not lock_compatible(W, R)
    assert not lock_compatible(W, W)
    assert not lock_compatible(W, X)
    assert lock_compatible(X, R)
    assert not lock_compatible(X, W)
    assert not lock_compatible(X, X)


def test_use_list_modes_share_only_where_counter_moves_commute():
    R, W, X = LockMode.READ, LockMode.WRITE, LockMode.EXCLUDE_WRITE
    I, D = LockMode.INCREMENT, LockMode.DECREMENT
    assert not lock_compatible(I, I)  # binders exclude each other
    assert lock_compatible(I, D) and lock_compatible(D, I)
    assert lock_compatible(D, D)
    for mode in (R, W, X):  # snapshots, Remove, Exclude stay exclusive
        for counter_mode in (I, D):
            assert not lock_compatible(mode, counter_mode)
            assert not lock_compatible(counter_mode, mode)


def test_a_binder_holding_increment_cannot_promote_past_a_decrement():
    """The Remove of a failed server promotes the binder's INCREMENT to
    WRITE, which an unrelated uncommitted Decrement refuses."""
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.INCREMENT)
    lm.try_lock(A2, "e", LockMode.DECREMENT)
    lm.try_lock(A1, "e", LockMode.DECREMENT)  # covered: no-op
    assert mode_held(lm, A1, "e") is LockMode.INCREMENT
    with pytest.raises(PromotionRefused):
        lm.try_lock(A1, "e", LockMode.WRITE)
    lm.release_all(A2)
    lm.try_lock(A1, "e", LockMode.WRITE)
    assert mode_held(lm, A1, "e") is LockMode.WRITE


def test_a_re_request_across_mode_families_promotes_to_write():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.DECREMENT)
    lm.try_lock(A1, "e", LockMode.READ)
    assert mode_held(lm, A1, "e") is LockMode.WRITE
    assert lm.promotions == 1


def test_shared_reads():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A2, "e", LockMode.READ)
    assert len(lock_holders(lm, "e")) == 2


def test_write_excludes_read():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.WRITE)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", LockMode.READ)


def test_read_blocks_write():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", LockMode.WRITE)


def test_promotion_read_to_write_sole_holder():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A1, "e", LockMode.WRITE)  # promotion succeeds
    assert mode_held(lm, A1, "e") is LockMode.WRITE
    assert lm.promotions == 1


def test_promotion_refused_with_other_readers():
    """The paper's 4.2.1 motivating failure: shared readers block
    read->write promotion."""
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A2, "e", LockMode.READ)
    with pytest.raises(PromotionRefused):
        lm.try_lock(A1, "e", LockMode.WRITE)
    assert lm.promotion_refusals == 1
    assert mode_held(lm, A1, "e") is LockMode.READ  # unchanged


def test_exclude_write_promotion_succeeds_with_readers():
    """The exclude-write fix: promotion shared with read locks."""
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A2, "e", LockMode.READ)
    lm.try_lock(A1, "e", LockMode.EXCLUDE_WRITE)
    assert mode_held(lm, A1, "e") is LockMode.EXCLUDE_WRITE
    # And a third reader can still join.
    lm.try_lock(A3, "e", LockMode.READ)


def test_two_excluders_conflict():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.EXCLUDE_WRITE)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", LockMode.EXCLUDE_WRITE)


def test_rerequest_weaker_mode_is_noop():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.WRITE)
    lm.try_lock(A1, "e", LockMode.READ)
    assert mode_held(lm, A1, "e") is LockMode.WRITE


def test_ancestors_and_descendants_never_conflict():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A1_CHILD, "e", LockMode.WRITE)     # child may write
    lm.try_lock(A1_GRANDCHILD, "e", LockMode.WRITE)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", LockMode.READ)        # stranger still blocked


def test_release_all():
    lm = LockManager()
    lm.try_lock(A1, "e1", LockMode.READ)
    lm.try_lock(A1, "e2", LockMode.WRITE)
    lm.try_lock(A2, "e1", LockMode.READ)
    assert lm.release_all(A1) == 2
    assert mode_held(lm, A1, "e1") is None
    assert mode_held(lm, A2, "e1") is LockMode.READ
    lm.try_lock(A2, "e2", LockMode.WRITE)  # e2 now free


def test_exclude_write_self_conflict_on_promotion():
    """Two readers cannot both promote to EXCLUDE_WRITE: the second
    promotion hits the mode's self-conflict and is refused."""
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.READ)
    lm.try_lock(A2, "e", LockMode.READ)
    lm.try_lock(A1, "e", LockMode.EXCLUDE_WRITE)
    with pytest.raises(PromotionRefused):
        lm.try_lock(A2, "e", LockMode.EXCLUDE_WRITE)
    assert mode_held(lm, A2, "e") is LockMode.READ  # demand left unchanged


def test_owners_listing():
    lm = LockManager()
    lm.try_lock(A1, "e1", LockMode.READ)
    lm.try_lock(A2, "e2", LockMode.READ)
    assert lm.owners() == {A1, A2}


def test_grant_and_refusal_counters():
    lm = LockManager()
    lm.try_lock(A1, "e", LockMode.WRITE)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", LockMode.READ)
    assert lm.grants == 1
    assert lm.refusals == 1


# -- parked requests: younger waits for older --------------------------------

W, R, I = LockMode.WRITE, LockMode.READ, LockMode.INCREMENT


def parking_table():
    from repro.sim.scheduler import Scheduler
    return LockManager(), Scheduler()


def test_a_younger_fresh_request_parks_and_is_granted_on_release():
    lm, clock = parking_table()
    lm.try_lock(A1, "e", I)
    parked = lm.lock(A2, "e", I, clock, 1.0)
    assert not parked.done and lm.waiters() == {A2}
    assert (lm.grants, lm.parks, lm.refusals) == (1, 1, 0)
    lm.release_all(A1)
    assert parked.done and not parked.failed
    assert mode_held(lm, A2, "e") is I and not lm.waiters()
    assert lm.grants == 2


def test_an_older_request_and_a_sibling_are_refused_at_once():
    lm, clock = parking_table()
    lm.try_lock(A2, "e", W)
    with pytest.raises(LockRefused):
        lm.lock(A1, "e", R, clock, 1.0)          # older than the holder
    lm.try_lock(ActionId((3, 1)), "f", W)
    with pytest.raises(LockRefused):             # same age: not older
        lm.lock(ActionId((3, 2)), "f", W, clock, 1.0)
    assert lm.parks == 0 and lm.refusals == 2


def test_a_request_without_a_clock_never_parks():
    lm, _ = parking_table()
    lm.try_lock(A1, "e", W)
    with pytest.raises(LockRefused):
        lm.try_lock(A2, "e", W)
    assert lm.parks == 0


def test_promotions_never_park():
    lm, clock = parking_table()
    lm.try_lock(A1, "e", R)
    lm.try_lock(A2, "e", R)
    with pytest.raises(PromotionRefused):
        lm.lock(A2, "e", W, clock, 1.0)          # A1 is older, yet no park
    assert lm.parks == 0


def test_parked_requests_are_retried_oldest_first():
    lm, clock = parking_table()
    lm.try_lock(A1, "e", W)
    third = lm.lock(A3, "e", W, clock, 1.0)
    second = lm.lock(A2, "e", W, clock, 1.0)
    lm.release_all(A1)
    assert second.done and not third.done    # A3 now waits on older A2
    assert mode_held(lm, A2, "e") is W
    lm.release_all(A2)
    assert third.done and mode_held(lm, A3, "e") is W


def test_a_younger_request_queues_behind_an_older_parked_one():
    """A3's read shares with A1's, but granting it would leave the
    older parked writer A2 waiting on a younger holder."""
    lm, clock = parking_table()
    lm.try_lock(A1, "e", R)
    writer = lm.lock(A2, "e", W, clock, 1.0)
    with pytest.raises(LockRefused):
        lm.try_lock(A3, "e", R)
    reader = lm.lock(A3, "e", R, clock, 1.0)
    lm.release_all(A1)
    assert writer.done and not reader.done   # A3 now waits on older A2
    lm.release_all(A2)
    assert reader.done and mode_held(lm, A3, "e") is R
    # An older request than the parked one may be granted past it.
    lm.try_lock(A3, "f", R)
    late_writer = lm.lock(ActionId((5,)), "f", W, clock, 1.0)
    lm.try_lock(A1, "f", R)
    assert mode_held(lm, A1, "f") is R and not late_writer.done


def test_a_parked_request_is_refused_once_it_has_waited_its_patience():
    lm, clock = parking_table()
    lm.try_lock(A1, "e", W)
    parked = lm.lock(A2, "e", W, clock, 0.5)
    clock.run(until=0.49)
    assert not parked.done
    clock.run(until=0.5)
    assert isinstance(parked.exception(), LockRefused)
    assert not lm.waiters() and lm.refusals == 1
    lm.release_all(A1)
    assert not lm.owners()


def test_ending_an_action_refuses_its_parked_requests_tree_wide():
    lm, clock = parking_table()
    lm.try_lock(A1, "e", W)
    parked = lm.lock(ActionId((2, 7)), "e", W, clock, 1.0)
    lm.release_tree((2,))                    # its top-level action aborts
    assert isinstance(parked.exception(), LockRefused)
    lm.release_all(A1)
    assert not lm.owners() and not lm.waiters()
