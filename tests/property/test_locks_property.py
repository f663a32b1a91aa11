"""Property-based tests for the lock manager invariants."""

from hypothesis import example, given, settings, strategies as st

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


# -- parked requests: younger waits for older ----------------------------

RESOURCES = ("r1", "r2")
PATIENCE = 1.0


@st.composite
def parking_scripts(draw):
    """Requests, commits, aborts and clock ticks over 3-5 actions and
    two resources; an action may also request as its nested child."""
    actions = draw(st.integers(min_value=3, max_value=5))
    serials = st.integers(min_value=1, max_value=actions)
    request = st.tuples(st.just("request"), serials,
                        st.sampled_from([0, 1, 2]),
                        st.sampled_from(RESOURCES), modes)
    steps = st.one_of(
        request, request, request, request,  # weighted: ending is final
        st.tuples(st.just("commit"), serials),
        st.tuples(st.just("abort"), serials),
        st.tuples(st.just("tick"), st.sampled_from([0.1, 0.6, 1.5])))
    return draw(st.lists(steps, min_size=1, max_size=30))


def _waits_on(lm, owner, resource, mode, parked_self=None):
    """What a request must wait for: the unrelated holders it conflicts
    with, and the conflicting requests parked ahead of it (no younger)."""
    holders = [held for held, held_mode in lock_holders(lm, resource)
               if not held.related(owner)
               and not lock_compatible(mode, held_mode)]
    ahead = [parked.owner for parked in lm._parked.get(resource, ())
             if parked is not parked_self and not parked.owner.related(owner)
             and parked.owner.path[0] <= owner.path[0]
             and not lock_compatible(mode, parked.mode)]
    return holders + ahead


def _assert_parked_wait_on_older_actions_only(lm):
    for resource, queue in lm._parked.items():
        for parked in queue:
            waits = _waits_on(lm, parked.owner, resource, parked.mode, parked)
            assert waits and all(
                other.path[0] < parked.owner.path[0] for other in waits)


R, W = LockMode.READ, LockMode.WRITE


@settings(max_examples=300)
@given(parking_scripts())
# The parker aborts before the holder releases: never granted.
@example([("request", 1, 0, "r1", W), ("request", 2, 0, "r1", W),
          ("abort", 2), ("commit", 1)])
# A younger reader would share with the older one, but queues behind
# the parked writer: a grant would leave the writer waiting on it.
@example([("request", 1, 0, "r1", R), ("request", 3, 0, "r1", W),
          ("request", 4, 0, "r1", R), ("commit", 1)])
def test_parked_requests_wait_only_on_older_actions_and_always_settle(script):
    from repro.actions import PromotionRefused
    from repro.sim.scheduler import Scheduler

    clock, lm = Scheduler(), LockManager()
    ended, futures = set(), []

    def on_settled(future, owner, resource):
        if not future.failed:
            # Never granted to an action that has already ended here.
            assert owner.path[0] not in ended
            assert any(held == owner for held, _ in lock_holders(lm, resource))

    for step in script:
        if step[0] == "request":
            _, serial, child, resource, mode = step
            if serial in ended:
                continue  # an ended action requests nothing more
            # Children 1 and 2 of one root are unrelated siblings.
            owner = ActionId((serial, child) if child else (serial,))
            conflicts = _waits_on(lm, owner, resource, mode)
            promotion = any(held == owner for held, _ in
                            lock_holders(lm, resource))
            try:
                future = lm.lock(owner, resource, mode, clock, PATIENCE)
            except PromotionRefused:
                assert promotion and conflicts
                continue
            except LockRefused:
                # Refused at once: some conflicting holder (or request
                # parked ahead) is the same age or younger.
                assert conflicts and any(
                    held.path[0] >= serial for held in conflicts)
                continue
            if future is None:
                assert promotion or not conflicts
                continue
            assert not promotion  # parked: a fresh request
            futures.append(future)
            future.add_callback(lambda f, o=owner, r=resource:
                                on_settled(f, o, r))
        elif step[0] in ("commit", "abort"):
            ended.add(step[1])
            lm.release_tree((step[1],))
        else:
            clock.run(until=clock.now + step[1])
        assert not {owner.path[0] for owner in lm.owners()} & ended
        _assert_parked_wait_on_older_actions_only(lm)

    while lm.owners():  # every holder releases, round after round
        for owner in sorted(lm.owners(), key=lambda o: o.path):
            lm.release_all(owner)
            _assert_parked_wait_on_older_actions_only(lm)
    assert all(future.done for future in futures)
    assert not lm.waiters() and not lm._parked
