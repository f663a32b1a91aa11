"""Property-based tests for the lock manager invariants."""

from hypothesis import given, strategies as st

from repro.actions import (
    ActionId,
    LockManager,
    LockMode,
    LockRefused,
    lock_compatible,
    lock_covers,
)

from tests.conftest import lock_holders

modes = st.sampled_from(list(LockMode))
owner_serials = st.integers(min_value=1, max_value=6)
resources = st.sampled_from(["r1", "r2", "r3"])


@st.composite
def lock_scripts(draw):
    """A random sequence of try_lock/release_all operations."""
    script = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        serial = draw(owner_serials)
        if draw(st.booleans()):
            script.append(("lock", serial, draw(resources), draw(modes)))
        else:
            script.append(("release_all", serial))
    return script


def run_script(script):
    lm = LockManager()
    for step in script:
        if step[0] == "lock":
            _, serial, resource, mode = step
            try:
                lm.try_lock(ActionId((serial,)), resource, mode)
            except LockRefused:
                pass
        else:
            lm.release_all(ActionId((step[1],)))
    return lm


@given(lock_scripts())
def test_held_locks_always_pairwise_compatible(script):
    """Whatever the operation sequence, granted locks of unrelated
    owners are pairwise compatible -- the fundamental safety property."""
    lm = run_script(script)
    for resource in ("r1", "r2", "r3"):
        holders = lock_holders(lm, resource)
        for i, (owner_a, mode_a) in enumerate(holders):
            for owner_b, mode_b in holders[i + 1:]:
                if owner_a.related(owner_b):
                    continue
                assert lock_compatible(mode_a, mode_b) or \
                    lock_compatible(mode_b, mode_a), (
                        f"incompatible grant: {mode_a} vs {mode_b}")


@given(lock_scripts())
def test_at_most_one_lock_per_owner_per_resource(script):
    lm = run_script(script)
    for resource in ("r1", "r2", "r3"):
        owners = [owner for owner, _ in lock_holders(lm, resource)]
        assert len(owners) == len(set(owners))


@given(lock_scripts())
def test_release_all_leaves_no_trace(script):
    lm = run_script(script)
    for serial in range(1, 7):
        lm.release_all(ActionId((serial,)))
    for resource in ("r1", "r2", "r3"):
        assert not lm.is_locked(resource)


@given(modes, modes)
def test_write_never_shares(requested, held):
    if LockMode.WRITE in (requested, held):
        assert not lock_compatible(requested, held)


@given(modes)
def test_read_shares_only_with_read_and_exclude_write(mode):
    expected = mode in (LockMode.READ, LockMode.EXCLUDE_WRITE)
    assert lock_compatible(LockMode.READ, mode) is expected


@given(modes, modes)
def test_the_matrix_is_symmetric(requested, held):
    assert lock_compatible(requested, held) is lock_compatible(held, requested)


@given(modes, modes)
def test_covering_is_derived_from_the_matrix(stronger, weaker):
    """Holding a covering mode excludes every mode the covered one does."""
    assert lock_covers(stronger, weaker) is all(
        lock_compatible(other, weaker) for other in LockMode
        if lock_compatible(other, stronger))


def test_covering_reproduces_the_paper_strength_order():
    R, X, W = LockMode.READ, LockMode.EXCLUDE_WRITE, LockMode.WRITE
    for weaker, stronger in ((R, X), (X, W), (R, W)):
        assert lock_covers(stronger, weaker)
        assert not lock_covers(weaker, stronger)
    I, D = LockMode.INCREMENT, LockMode.DECREMENT
    for weaker, stronger in ((D, I), (I, W), (D, W)):
        assert lock_covers(stronger, weaker)
        assert not lock_covers(weaker, stronger)
    # The read family and the use-list family are not ordered.
    for a in (R, X):
        for b in (I, D):
            assert not lock_covers(a, b) and not lock_covers(b, a)


@given(modes, modes)
def test_a_re_request_ends_holding_a_mode_that_covers_both(held, requested):
    lm = LockManager()
    owner = ActionId((1,))
    lm.try_lock(owner, "r", held)
    lm.try_lock(owner, "r", requested)
    [(_, now)] = lock_holders(lm, "r")
    assert lock_covers(now, held) and lock_covers(now, requested)
