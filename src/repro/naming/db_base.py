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
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.actions.action import ActionId
from repro.actions.locks import LockManager, LockMode
from repro.sim.metrics import MetricsRegistry

ActionPath = tuple[int, ...]


class ActionDatabase:
    """Base: lock table, undo log, and the 2PC participant interface."""

    def __init__(self, name: str, metrics: MetricsRegistry | None = None) -> None:
        self.name = name
        self.locks = LockManager()
        self._undo: list[tuple[ActionPath, Callable[[], None]]] = []
        self.metrics = metrics or MetricsRegistry()

    # -- locking helpers --------------------------------------------------

    def _lock(self, action_path: ActionPath, resource: Hashable,
              mode: LockMode) -> None:
        """Acquire ``mode`` for the action; raises LockRefused on conflict."""
        owner = ActionId(tuple(action_path))
        self.locks.try_lock(owner, resource, mode)
        self.metrics.counter(f"{self.name}.locks.{mode.value}").increment()

    def _record_undo(self, action_path: ActionPath,
                     undo_fn: Callable[[], None]) -> None:
        self._undo.append((tuple(action_path), undo_fn))

    # -- 2PC participant interface ------------------------------------------

    def prepare(self, action_path: ActionPath) -> str:
        """Vote.  The database is up (we were reached), so: did this
        action write anything here?

        A read-only participant votes "readonly" and is skipped in phase
        2, so it must release its (read) locks now -- the standard 2PC
        read-only optimisation; the action is past its growing phase.
        """
        path = tuple(action_path)
        wrote = any(_is_prefix(path, entry_path) or _is_prefix(entry_path, path)
                    for entry_path, _ in self._undo)
        if not wrote:
            self._release_tree(path)
            return "readonly"
        return "ok"

    def commit(self, action_path: ActionPath) -> None:
        """Make the action's effects permanent and release its locks."""
        path = tuple(action_path)
        self._undo = [(p, fn) for p, fn in self._undo if not _is_prefix(path, p)]
        self._release_tree(path)

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
        self._release_tree(path)

    def _release_tree(self, path: ActionPath) -> None:
        for owner in list(self.locks.owners()):
            if _is_prefix(path, owner.path):
                self.locks.release_all(owner)

    def reset_volatile(self) -> None:
        """Model a crash of the hosting node: locks and undo logs are
        volatile, committed entries are stable.

        Used by shard-host recovery: whatever 2PC traffic was in
        progress at the crash is decided by the surviving replicas, and
        the recovering database must not resurrect half-applied writes
        or stale lock claims.  The empty path is a prefix of every
        action, so a blanket abort is exactly this semantics: all undo
        entries reversed newest-first, every lock released.
        """
        self.abort(())


def _is_prefix(prefix: ActionPath, path: ActionPath) -> bool:
    return path[:len(prefix)] == prefix
