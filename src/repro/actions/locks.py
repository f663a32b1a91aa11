"""Multi-mode locking with the paper's EXCLUDE_WRITE mode.

Section 4 of the paper concurrency-controls each naming-database entry
with locks.  The standard modes are READ and WRITE; section 4.2.1 adds a
type-specific **exclude-write** mode that *shares with read locks* so
that a committing client can Exclude crashed stores from ``St`` while
other clients still hold read locks on the same entry -- without it, the
read-to-write promotion is refused and the committer must abort.

Compatibility matrix (``True`` = may be held simultaneously by
unrelated actions):

===============  =====  =====  ==============
requested \\ held  READ   WRITE  EXCLUDE_WRITE
===============  =====  =====  ==============
READ              yes    no     yes
WRITE             no     no     no
EXCLUDE_WRITE     yes    no     no
===============  =====  =====  ==============

EXCLUDE_WRITE conflicts with itself: two simultaneous excluders could
otherwise interleave their removals with reads of the set they are
pruning.  (Exclusions are set-removals and *could* be made commutative;
keeping self-conflict matches the conservative reading of the paper and
is ablated in the benchmarks.)

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


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.READ, LockMode.READ): True,
    (LockMode.READ, LockMode.WRITE): False,
    (LockMode.READ, LockMode.EXCLUDE_WRITE): True,
    (LockMode.WRITE, LockMode.READ): False,
    (LockMode.WRITE, LockMode.WRITE): False,
    (LockMode.WRITE, LockMode.EXCLUDE_WRITE): False,
    (LockMode.EXCLUDE_WRITE, LockMode.READ): True,
    (LockMode.EXCLUDE_WRITE, LockMode.WRITE): False,
    (LockMode.EXCLUDE_WRITE, LockMode.EXCLUDE_WRITE): False,
}

# Strength order used to decide whether a re-request is a promotion.
_STRENGTH = {LockMode.READ: 0, LockMode.EXCLUDE_WRITE: 1, LockMode.WRITE: 2}


def lock_compatible(requested: LockMode, held: LockMode) -> bool:
    """Whether ``requested`` may coexist with an unrelated ``held`` lock."""
    return _COMPATIBLE[(requested, held)]


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

        Re-requesting a mode already covered is a no-op.  Requesting a
        stronger mode attempts promotion, which succeeds only if every
        *unrelated* holder is compatible with the stronger mode.
        """
        holders = self._table.setdefault(resource, [])
        mine = self._find(holders, owner)
        if mine is not None:
            if _STRENGTH[mode] <= _STRENGTH[mine.mode]:
                return  # already held at sufficient strength
            self._check_conflicts(holders, owner, mode, promotion=True)
            mine.mode = mode
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
