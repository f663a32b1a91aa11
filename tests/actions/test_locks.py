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
