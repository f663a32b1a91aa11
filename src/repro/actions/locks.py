"""Multi-mode locking with the paper's EXCLUDE_WRITE mode and two
type-specific use-list modes.

Section 4 of the paper concurrency-controls each naming-database entry
with locks.  The standard modes are READ and WRITE; section 4.2.1 adds a
type-specific **exclude-write** mode that *shares with read locks* so
that a committing client can Exclude crashed stores from ``St`` while
other clients still hold read locks on the same entry -- without it, the
read-to-write promotion is refused and the committer must abort.

The figure-7/8 binding schemes maintain per-host use counters with
``Increment`` and ``Decrement`` (section 4.1.3).  Counter arithmetic
commutes (increment locks, Korth; commutativity-based locking, Weihl),
so two more type-specific modes replace the write lock there:
**INCREMENT**, taken by a binding action's write-intent read and its
``Increment``, and **DECREMENT**, taken by the unbinding ``Decrement``.

Compatibility matrix (``True`` = may be held simultaneously by
unrelated actions); it is symmetric:

===============  =====  =====  =============  =========  =========
requested \\ held  READ   WRITE  EXCLUDE_WRITE  INCREMENT  DECREMENT
===============  =====  =====  =============  =========  =========
READ              yes    no     yes            no         no
WRITE             no     no     no             no         no
EXCLUDE_WRITE     yes    no     no             no         no
INCREMENT         no     no     no             no         yes
DECREMENT         no     no     no             yes        yes
===============  =====  =====  =============  =========  =========

Why each cell is what it is:

- EXCLUDE_WRITE conflicts with itself: two simultaneous excluders could
  otherwise interleave their removals with reads of the set they are
  pruning.  (Exclusions are set-removals and *could* be made
  commutative; keeping self-conflict matches the conservative reading
  of the paper and is ablated in the benchmarks.)
- READ / INCREMENT and READ / DECREMENT: no.  A read returns a committed
  snapshot (the leased read, every maintenance probe, the audit), and
  an uncommitted counter move is not committed state.
- EXCLUDE_WRITE / INCREMENT and EXCLUDE_WRITE / DECREMENT: no.  The
  modes guard different halves in practice; nothing gains by sharing.
- INCREMENT / INCREMENT: no.  Concurrent binders must exclude each
  other: each reads the use lists to decide which servers to join, and
  section 4.1.3's mutual consistency needs that read serialised.
- INCREMENT / DECREMENT: yes.  The binder is serialised before the
  Decrement: its snapshot counts every uncommitted Decrement's use back
  in (:mod:`repro.naming.object_server_db`), and the two counter moves
  commute.
- DECREMENT / DECREMENT: yes.  Decrements commute, undo by the inverse
  delta and bump the version count by plain arithmetic, so any
  interleaving and any commit order converge.
- WRITE conflicts with everything: ``Remove`` undoes by restoring a
  snapshot, which would erase a concurrent counter move.

Re-requesting a mode the held one *covers* is a no-op.  A covers B when
every mode compatible with A is also compatible with B (derived from
the matrix: READ < EXCLUDE_WRITE < WRITE, DECREMENT < INCREMENT <
WRITE).  Any other re-request is a promotion to the weakest mode
covering both.

Lock owners are :class:`~repro.actions.action.ActionId` values.  An
action never conflicts with its own ancestors or descendants: a nested
action may read what its parent wrote.  Nothing moves on nested commit:
a lock keeps its nested owner until the table's holder releases a whole
action sub-tree at once -- at top-level commit, or when the nested
action aborts (see :mod:`repro.naming.db_base`).

Parked requests: younger waits for older
----------------------------------------

A conflicting request is refused at once, except a **fresh** request
(not a promotion) made through :meth:`LockManager.lock` whose every
conflicting unrelated holder is *older*: it has a smaller top-level
serial (``ActionId.path[0]``).  That request parks on a
:class:`~repro.sim.futures.Future` instead.  It is the wait half of
wound-wait (Rosenkrantz, Stearns & Lewis, TODS 1978) with no wounding:
an older requester is refused as before, and nobody is ever
pre-empted.  A parked request also counts as a conflict for any later
request that is not older than it: that request queues behind it (or
is refused), so a grant never leaves a parked request waiting on a
holder younger than itself.  Every lock wait therefore points from a
younger action to an older one, one total order, so lock waits alone
can never form a cycle.  The serials come from one process-wide
counter, so the order is total for free; a real deployment would order
by ``(clock, node)``.

When a holder releases, that resource's parked requests are retried
oldest first under the same rule: granted if nothing conflicts, left
parked if every conflict is still older, refused otherwise.
A parked request is refused with :class:`LockRefused` once it has
waited ``patience`` (its caller's bound), or when its owner's action
ends at this table (:meth:`LockManager.release_tree`), so no lock is
ever granted to an action that has already gone.  The bound also ends
any cycle that runs through a wait outside the lock table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Hashable, TYPE_CHECKING

from repro.actions.errors import LockRefused, PromotionRefused
from repro.sim.futures import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.actions.action import ActionId
    from repro.sim.events import Event
    from repro.sim.scheduler import Scheduler


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXCLUDE_WRITE = "exclude_write"
    INCREMENT = "increment"
    DECREMENT = "decrement"


_SHARED = {
    (LockMode.READ, LockMode.READ),
    (LockMode.READ, LockMode.EXCLUDE_WRITE),
    (LockMode.INCREMENT, LockMode.DECREMENT),
    (LockMode.DECREMENT, LockMode.DECREMENT),
}
_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (a, b): (a, b) in _SHARED or (b, a) in _SHARED
    for a in LockMode for b in LockMode}


def lock_compatible(requested: LockMode, held: LockMode) -> bool:
    """Whether ``requested`` may coexist with an unrelated ``held`` lock."""
    return _COMPATIBLE[(requested, held)]


def lock_covers(stronger: LockMode, weaker: LockMode) -> bool:
    """Whether holding ``stronger`` makes a request for ``weaker`` a
    no-op: every mode compatible with ``stronger`` is compatible with
    ``weaker`` too."""
    return all(lock_compatible(other, weaker) for other in LockMode
               if lock_compatible(other, stronger))


def _weakest_cover(a: LockMode, b: LockMode) -> LockMode:
    covering = [m for m in LockMode if lock_covers(m, a) and lock_covers(m, b)]
    return next(m for m in covering
                if all(lock_covers(other, m) for other in covering))


# (held, requested) -> the mode to hold afterwards: ``held`` itself when
# it covers the request, else the promotion target.
_AFTER = {(held, requested): _weakest_cover(held, requested)
          for held in LockMode for requested in LockMode}


@dataclass
class _Held:
    owner: "ActionId"
    mode: LockMode


@dataclass
class _Parked:
    owner: "ActionId"
    mode: LockMode
    future: Future
    timer: "Event | None" = None


class LockManager:
    """A lock table over hashable resource keys.

    ``try_lock`` grants immediately or raises
    :class:`LockRefused`/:class:`PromotionRefused`.  ``lock`` given a
    clock may also park a fresh request behind older holders (see the
    module docstring); the paper's schemes abort or retry on a refusal.
    """

    def __init__(self) -> None:
        self._table: dict[Hashable, list[_Held]] = {}
        self._parked: dict[Hashable, list[_Parked]] = {}
        self.grants = 0
        self.refusals = 0  # final: a parked request counts when it fails
        self.parks = 0
        self.promotions = 0
        self.promotion_refusals = 0

    # -- acquisition -------------------------------------------------------

    def lock(self, owner: "ActionId", resource: Hashable, mode: LockMode,
             clock: "Scheduler | None" = None,
             patience: float = 0.0) -> Future | None:
        """Grant ``mode`` on ``resource`` to ``owner`` (``None``), park
        the request (a future), or raise.

        Re-requesting a mode already covered is a no-op.  Any other
        re-request attempts promotion to the weakest mode covering both,
        which succeeds only if every *unrelated* holder is compatible
        with it, and never parks.  A request conflicting with a parked
        request no younger than itself is not granted past it.  A fresh
        request that conflicts parks only when a ``clock`` is given and
        every conflict (holder or parked request) is older: the future
        resolves once the lock is granted, or fails with
        :class:`LockRefused` after ``patience`` on ``clock`` or when the
        owner's action ends here.
        """
        holders = self._table.setdefault(resource, [])
        queue = self._parked.get(resource)
        mine = self._find(holders, owner)
        if mine is not None:
            target = _AFTER[(mine.mode, mode)]
            if target is mine.mode:
                return None  # already held at sufficient strength
            conflicts = self._conflicts(holders, owner, target)
            if queue:
                conflicts += self._ahead(queue, owner, target)
            if conflicts:
                held = conflicts[0]
                self.promotion_refusals += 1
                raise PromotionRefused(
                    f"cannot promote to {target.value} on {holders!r}: "
                    f"conflicts with {held.owner} holding {held.mode.value}")
            mine.mode = target
            self.promotions += 1
            return None
        conflicts = self._conflicts(holders, owner, mode)
        if queue:
            conflicts += self._ahead(queue, owner, mode)
        if not conflicts:
            holders.append(_Held(owner, mode))
            self.grants += 1
            return None
        if clock is None or not _all_older(conflicts, owner):
            self.refusals += 1
            raise _refused(mode, conflicts[0])
        parked = _Parked(owner, mode, Future(label="lock"))
        parked.timer = clock.schedule(patience, self._expire, resource, parked)
        self._parked.setdefault(resource, []).append(parked)
        self.parks += 1
        return parked.future

    # The try-lock: with no clock a request is granted or raised, never
    # parked.
    try_lock = lock

    @staticmethod
    def _conflicts(holders: "list[_Held] | list[_Parked]", owner: "ActionId",
                   mode: LockMode) -> list:
        conflicts = []
        for held in holders:
            if held.owner == owner or held.owner.related(owner):
                continue
            if not lock_compatible(mode, held.mode):
                conflicts.append(held)
        return conflicts

    def _ahead(self, queue: list[_Parked], owner: "ActionId",
               mode: LockMode) -> list[_Parked]:
        """The parked requests ``mode`` conflicts with that are no
        younger than ``owner``: granting past one would leave it waiting
        on a holder that is not older than itself."""
        serial = owner.top_level_serial
        return [parked for parked in self._conflicts(queue, owner, mode)
                if parked.owner.top_level_serial <= serial]

    def _expire(self, resource: Hashable, parked: _Parked) -> None:
        queue = self._parked[resource]
        queue.remove(parked)
        if not queue:
            del self._parked[resource]
        self._settle([(parked, LockRefused(
            f"{parked.mode.value} lock refused: parked past its bound"))])

    def _settle(self, settled: list[tuple[_Parked, LockRefused | None]]) -> None:
        """Wake parked callers once the table is consistent again."""
        for parked, error in settled:
            assert parked.timer is not None
            parked.timer.cancel()
            if error is None:
                self.grants += 1
                parked.future.resolve(None)
            else:
                self.refusals += 1
                parked.future.fail(error)

    # -- release ---------------------------------------------------------------

    def release_all(self, owner: "ActionId") -> int:
        """Release every lock held by ``owner`` and refuse its parked
        requests; returns how many locks."""
        return self._release(lambda other: other == owner)

    def release_tree(self, prefix: tuple[int, ...]) -> int:
        """:meth:`release_all` for every owner under the action path
        ``prefix``: the action (and its sub-tree) ended here."""
        return self._release(lambda other: other.path[:len(prefix)] == prefix)

    def _release(self, ending: Callable[["ActionId"], bool]) -> int:
        settled: list[tuple[_Parked, LockRefused | None]] = []
        for resource, queue in list(self._parked.items()):
            for parked in [p for p in queue if ending(p.owner)]:
                queue.remove(parked)
                settled.append((parked, LockRefused(
                    f"{parked.mode.value} lock refused: {parked.owner} "
                    f"ended while parked")))
            if not queue:
                del self._parked[resource]
        released = 0
        freed: list[Hashable] = []
        for resource in list(self._table):
            holders = self._table[resource]
            kept = [h for h in holders if not ending(h.owner)]
            if len(kept) != len(holders):
                released += len(holders) - len(kept)
                holders[:] = kept
                freed.append(resource)
            if not holders:
                del self._table[resource]
        for resource in freed:
            if resource in self._parked:
                self._retry(resource, settled)
        self._settle(settled)
        return released

    def _retry(self, resource: Hashable,
               settled: list[tuple[_Parked, LockRefused | None]]) -> None:
        """Re-apply the rule to ``resource``'s parked requests, oldest
        first; each grant is in the table before the next is judged."""
        queue = self._parked[resource]
        holders = self._table.setdefault(resource, [])
        still: list[_Parked] = []
        for parked in sorted(queue, key=lambda p: p.owner.top_level_serial):
            owner = parked.owner
            mine = self._find(holders, owner)
            mode = parked.mode if mine is None else _AFTER[(mine.mode,
                                                            parked.mode)]
            conflicts = (self._conflicts(holders, owner, mode)
                         + self._ahead(still, owner, mode))
            if conflicts and _all_older(conflicts, owner):
                still.append(parked)
                continue
            queue.remove(parked)
            if conflicts:
                settled.append((parked, _refused(mode, conflicts[0])))
                continue
            if mine is None:
                holders.append(_Held(owner, mode))
            else:
                mine.mode = mode
            settled.append((parked, None))
        if not queue:
            del self._parked[resource]
        if not holders:
            del self._table[resource]

    # -- inspection ----------------------------------------------------------

    def is_locked(self, resource: Hashable) -> bool:
        return bool(self._table.get(resource))

    def owners(self) -> set[Any]:
        return {h.owner for holders in self._table.values() for h in holders}

    def waiters(self) -> set[Any]:
        """The owners of every parked request."""
        return {p.owner for queue in self._parked.values() for p in queue}

    @staticmethod
    def _find(holders: list[_Held], owner: "ActionId") -> _Held | None:
        for held in holders:
            if held.owner == owner:
                return held
        return None


def _all_older(conflicts: list, requester: "ActionId") -> bool:
    """Whether every conflict is an older action's than ``requester``."""
    serial = requester.top_level_serial
    return all(held.owner.top_level_serial < serial for held in conflicts)


def _refused(mode: LockMode, blocker: "_Held | _Parked") -> LockRefused:
    verb = "holds" if isinstance(blocker, _Held) else "is parked for"
    return LockRefused(f"{mode.value} lock refused: {blocker.owner} "
                       f"{verb} {blocker.mode.value}")
