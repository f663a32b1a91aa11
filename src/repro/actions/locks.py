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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, TYPE_CHECKING

from repro.actions.errors import LockRefused, PromotionRefused

if TYPE_CHECKING:  # pragma: no cover
    from repro.actions.action import ActionId


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


class LockManager:
    """A try-lock table over hashable resource keys.

    ``try_lock`` either grants immediately or raises
    :class:`LockRefused`/:class:`PromotionRefused`; there is no blocking
    queue.  The paper's schemes abort or retry on refusal, and retrying
    at the client keeps the simulated databases deadlock-free.
    """

    def __init__(self) -> None:
        self._table: dict[Hashable, list[_Held]] = {}
        self.grants = 0
        self.refusals = 0
        self.promotions = 0
        self.promotion_refusals = 0

    # -- acquisition -------------------------------------------------------

    def try_lock(self, owner: "ActionId", resource: Hashable, mode: LockMode) -> None:
        """Grant ``mode`` on ``resource`` to ``owner`` or raise.

        Re-requesting a mode already covered is a no-op.  Any other
        re-request attempts promotion to the weakest mode covering both,
        which succeeds only if every *unrelated* holder is compatible
        with it.
        """
        holders = self._table.setdefault(resource, [])
        mine = self._find(holders, owner)
        if mine is not None:
            target = _AFTER[(mine.mode, mode)]
            if target is mine.mode:
                return  # already held at sufficient strength
            self._check_conflicts(holders, owner, target, promotion=True)
            mine.mode = target
            self.promotions += 1
            return
        self._check_conflicts(holders, owner, mode, promotion=False)
        holders.append(_Held(owner, mode))
        self.grants += 1

    def _check_conflicts(self, holders: list[_Held], owner: "ActionId",
                         mode: LockMode, promotion: bool) -> None:
        for held in holders:
            if held.owner == owner or held.owner.related(owner):
                continue
            if not lock_compatible(mode, held.mode):
                if promotion:
                    self.promotion_refusals += 1
                    raise PromotionRefused(
                        f"cannot promote to {mode.value} on {holders!r}: "
                        f"conflicts with {held.owner} holding {held.mode.value}")
                self.refusals += 1
                raise LockRefused(
                    f"{mode.value} lock refused: {held.owner} holds {held.mode.value}")

    # -- release ---------------------------------------------------------------

    def release_all(self, owner: "ActionId") -> int:
        """Release every lock held by ``owner``; returns how many."""
        released = 0
        for resource in list(self._table):
            holders = self._table[resource]
            before = len(holders)
            holders[:] = [h for h in holders if h.owner != owner]
            released += before - len(holders)
            if not holders:
                del self._table[resource]
        return released

    # -- inspection ----------------------------------------------------------

    def is_locked(self, resource: Hashable) -> bool:
        return bool(self._table.get(resource))

    def owners(self) -> set[Any]:
        return {h.owner for holders in self._table.values() for h in holders}

    @staticmethod
    def _find(holders: list[_Held], owner: "ActionId") -> _Held | None:
        for held in holders:
            if held.owner == owner:
                return held
        return None
