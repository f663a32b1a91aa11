"""Shared machinery for the naming databases.

Both databases are persistent objects whose operations execute under
atomic actions (paper section 3.1).  The concrete model:

- every operation names the acting :class:`~repro.actions.action.ActionId`
  by its path tuple (that is what travels over RPC);
- each per-object entry is an independently-lockable resource; the lock
  table lives here (strict two-phase locking: locks are held until the
  enclosing *top-level* action commits or the acquiring action aborts);
- mutations apply immediately and push compensating closures onto an
  undo log, so aborting an action (or any nested sub-tree of one)
  rolls its effects back;
- the database is a two-phase-commit participant: ``prepare``/``commit``
  /``abort`` keyed by action path; clients enlist it as a
  :class:`~repro.actions.records.ToldParticipantRecord`, which sends
  only the outcome.

Because locks are owned by :class:`ActionId` values whose paths encode
nesting, a nested action's read lock is automatically *inherited* to
the end of the top-level action -- precisely the behaviour figure 6
relies on ("at the end of the action the client commits, and the read
lock on the database entry is then released").

Each entry half carries one write version, ``(count, digest)``: the
count is bumped by every committed mutation (undo un-bumps an aborted
one), and the digest names the half's content (:func:`digest`).  Tuples
compare lexicographically, so every version gate orders two copies by
count first and settles an equal-count divergence -- a partial
partition committing a different write on each side -- on the greater
digest, the same winner wherever the comparison runs.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Generator, Hashable

from repro.actions.action import ActionId
from repro.actions.errors import LockRefused
from repro.actions.locks import LockManager, LockMode
from repro.sim.futures import Future
from repro.sim.metrics import Counter, MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.storage.uid import Uid

ActionPath = tuple[int, ...]
Version = tuple[int, int]  # (count, content digest) of one entry half
# Where and how long a request may park: the serving node's clock and
# half its RPC timeout (see GroupViewDatabase.park_on).
Parking = tuple[Scheduler, float]


def digest(content: object) -> int:
    """CRC-32 of ``content``'s ``repr``: equal on every replica holding
    equal content (unlike the per-process salted ``hash``)."""
    return zlib.crc32(repr(content).encode())


class ActionDatabase:
    """Base: lock table, undo log, and the 2PC participant interface."""

    # uid -> the subclass's entry record (each carries a ``version``).
    _entries: dict[Uid, Any]
    # The subclass's counter prefix ("server_db" / "state_db").
    name: str

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.locks = LockManager()
        self._undo: list[tuple[ActionPath, Callable[[], None]]] = []
        self.metrics = metrics or MetricsRegistry()
        # ``<name>.locks.<mode>`` by mode value, looked up once: a grant
        # is the naming hot path (and a mode's ``value`` property, like
        # its hash, is a python-level call).
        self._grants: dict[str, Counter] = {}
        # Told the uid of every change to an entry's version or content
        # -- its define, bumps, installs, removal, and their undos: the
        # owning database's partition-digest index, or None.
        self.on_change: Callable[[Uid], None] | None = None

    # -- entries ------------------------------------------------------------

    def knows(self, uid: Uid) -> bool:
        return uid in self._entries

    def _changed(self, uid: Uid) -> None:
        if self.on_change is not None:
            self.on_change(uid)

    def _bump(self, action_path: ActionPath, uid: Uid) -> None:
        """Advance the entry's write version, undoably."""
        entry = self._entries.get(uid)
        if entry is None:
            return
        entry.version += 1
        self._changed(uid)

        def undo() -> None:
            rolled = self._entries.get(uid)
            if rolled is not None and rolled.version > 0:
                rolled.version -= 1
                self._changed(uid)

        self._record_undo(action_path, undo)

    def forget(self, uid: Uid) -> bool:
        """Drop the entry outright: online-resharding garbage collection,
        and the undo of a define.

        No locks, no undo: callers must hold the entry's write lock (or
        own the database exclusively) and must only forget entries this
        replica no longer owns under the current ring.  Returns whether
        an entry was present.
        """
        if self._entries.pop(uid, None) is None:
            return False
        self._changed(uid)
        return True

    # -- locking helpers --------------------------------------------------

    def _lock(self, action_path: ActionPath, resource: Hashable,
              mode: LockMode, park: Parking | None = None) -> Future | None:
        """Acquire ``mode`` for the action; raises LockRefused on conflict.

        With ``park`` (the serving node's clock and the bound), a fresh
        request behind older holders parks instead (see
        :mod:`repro.actions.locks`): the parked future is returned, for
        :meth:`_granted` to wait on.  Counts grants as
        ``<db>.locks.<mode>``, parks as ``<db>.locks_parked.<mode>`` and
        refusals (promotions and failed parks included) as
        ``<db>.locks_refused.<mode>``, by the requested mode.  The owner
        names the action's coordinator when the path is a
        :class:`~repro.actions.outcomes.RefPath`.
        """
        owner = ActionId(tuple(action_path),
                         getattr(action_path, "ref", ""))
        try:
            parked = self.locks.lock(owner, resource, mode, *(park or ()))
        except LockRefused:
            self._count_refused(mode)
            raise
        if parked is not None:
            self.metrics.counter(
                f"{self.name}.locks_parked.{mode.value}").increment()
            return parked
        grants = self._grants.get(mode._value_)
        if grants is None:
            grants = self._grants[mode._value_] = self.metrics.counter(
                f"{self.name}.locks.{mode.value}")
        grants.increment()
        return None

    def _count_refused(self, mode: LockMode) -> None:
        self.metrics.counter(
            f"{self.name}.locks_refused.{mode.value}").increment()

    def _granted(self, parked: Future, mode: LockMode, clock: Scheduler,
                 then: Callable[[], Any]) -> Generator[Any, Any, Any]:
        """Wait out a parked request, then return ``then()`` (which
        re-requests the lock: a covered no-op, counted as the grant).
        The wait goes into the ``lock_wait`` histogram, in sim-s."""
        started = clock.now
        try:
            yield parked
        except LockRefused:
            self._count_refused(mode)
            raise
        finally:
            self.metrics.histogram("lock_wait").observe(clock.now - started)
        return then()

    def _record_undo(self, action_path: ActionPath,
                     undo_fn: Callable[[], None]) -> None:
        self._undo.append((tuple(action_path), undo_fn))

    # -- 2PC participant interface ------------------------------------------

    def wrote(self, path: ActionPath) -> bool:
        """Whether the action (or a relative of it) has undo entries."""
        return any(_is_prefix(path, entry_path) or _is_prefix(entry_path, path)
                   for entry_path, _ in self._undo)

    def prepare(self, action_path: ActionPath) -> str:
        """Vote.  The database is up (we were reached), so: did this
        action write anything here?

        A read-only participant votes "readonly" and is skipped in phase
        2, so it must release its (read) locks now -- the standard 2PC
        read-only optimisation; the action is past its growing phase.
        """
        path = tuple(action_path)
        if not self.wrote(path):
            self.locks.release_tree(path)
            return "readonly"
        return "ok"

    def commit(self, action_path: ActionPath) -> None:
        """Make the action's effects permanent and release its locks."""
        path = tuple(action_path)
        self._undo = [(p, fn) for p, fn in self._undo if not _is_prefix(path, p)]
        self.locks.release_tree(path)

    def abort(self, action_path: ActionPath) -> None:
        """Undo the action's (and its descendants') effects, free locks."""
        path = tuple(action_path)
        keep: list[tuple[ActionPath, Callable[[], None]]] = []
        undoing: list[tuple[ActionPath, Callable[[], None]]] = []
        for entry_path, fn in self._undo:
            (undoing if _is_prefix(path, entry_path) else keep).append((entry_path, fn))
        for _, fn in reversed(undoing):
            fn()
        self._undo = keep
        self.locks.release_tree(path)

    def reset_volatile(self) -> None:
        """Model a crash of the hosting node: locks and undo logs are
        volatile, committed entries are stable.

        Used by shard-host recovery: whatever 2PC traffic was in
        progress at the crash is decided by the surviving replicas, and
        the recovering database must not resurrect half-applied writes
        or stale lock claims.  The empty path is a prefix of every
        action, so a blanket abort is exactly this semantics: all undo
        entries reversed newest-first, every lock released, every
        parked request refused.
        """
        self.abort(())


def _is_prefix(prefix: ActionPath, path: ActionPath) -> bool:
    return path[:len(prefix)] == prefix
