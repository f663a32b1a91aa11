"""Atomic actions: nested, independent top-level, and nested top-level.

An :class:`AtomicAction` accumulates :class:`AbstractRecord` intention
records as the application touches resources.  Termination is two-phase
commit over the records:

- *top-level* commit runs ``prepare`` on every record (any abort vote or
  exception aborts the whole action), then ``commit`` on the survivors;
- *nested* commit performs no 2PC: records are merged into the parent,
  so their effects remain provisional until the top-level action
  resolves (locks are inherited, not released -- strict two-phase
  locking across the nesting hierarchy);
- abort runs ``abort`` on every record in reverse order.

``commit``/``abort`` are generators because records may need RPCs (e.g.
telling a remote database participant to prepare); drive them from a
simulation process with ``outcome = yield from action.commit()``.  For
purely local actions :meth:`AtomicAction.run_local` drives the generator
synchronously.

Nested **top-level** actions (paper figure 8) are created with
``AtomicAction(parent=outer, independent=True)``: they run within the
dynamic extent of ``outer`` but commit independently of it -- their
effects persist even if ``outer`` later aborts.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass
from typing import Any, Generator

from repro.actions.errors import InvalidActionState

_action_serials = itertools.count(1)


@dataclass(frozen=True)
class ActionId:
    """Identity of an action, carrying its nesting lineage.

    ``path`` is the chain of serials from the top-level action down to
    this one; an action is *related* to another if one path is a prefix
    of the other (ancestor/descendant).  Related actions never conflict
    on locks.
    """

    path: tuple[int, ...]
    node: str = ""

    def related(self, other: "ActionId") -> bool:
        shorter = min(len(self.path), len(other.path))
        return self.path[:shorter] == other.path[:shorter]

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def top_level_serial(self) -> int:
        return self.path[0]

    def __str__(self) -> str:
        return "A" + ".".join(str(p) for p in self.path)


class ActionStatus(enum.Enum):
    RUNNING = "running"
    PREPARING = "preparing"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Vote(enum.Enum):
    """Prepare-phase votes."""

    OK = "ok"
    READONLY = "readonly"  # nothing to do at phase 2
    ABORT = "abort"


class AbstractRecord:
    """An intention record: one participant's stake in the action.

    ``order`` fixes processing order within a phase -- e.g. replica state
    distribution must run (and compute its exclusions) before the naming
    database participant prepares.  Lower orders run first in prepare and
    commit, last in abort.
    """

    order: int = 100

    def prepare(self, action: "AtomicAction") -> Generator[Any, Any, Vote]:
        """Phase 1.  Return a :class:`Vote`; raising also vetoes."""
        return Vote.READONLY
        yield  # pragma: no cover - makes this a generator

    def commit(self, action: "AtomicAction") -> Generator[Any, Any, None]:
        """Phase 2 after a successful prepare round."""
        return
        yield  # pragma: no cover

    def abort(self, action: "AtomicAction") -> Generator[Any, Any, None]:
        """Undo; called for top-level abort and nested abort alike."""
        return
        yield  # pragma: no cover

    # Eager phase starts: before driving a same-order group's phase
    # generators one by one, the action calls ``begin_<phase>`` on every
    # record of the group.  An RPC-backed record issues its phase
    # message here, so the whole group's calls go out at one virtual
    # instant -- one round trip for the group instead of one per record.
    # Default: do nothing (the phase generator does all the work).

    def begin_prepare(self, action: "AtomicAction") -> None:
        """Optionally start phase 1 early; raising vetoes like prepare."""

    def begin_commit(self, action: "AtomicAction") -> None:
        """Optionally start phase 2 early; raising is a heuristic failure."""

    def begin_abort(self, action: "AtomicAction") -> None:
        """Optionally start the undo early; raising is logged and ignored."""

    def merge_into_parent(self, parent: "AtomicAction") -> None:
        """Nested commit: hand the record to the parent action."""
        parent.add_record(self)


class AtomicAction:
    """One atomic action.

    Lifecycle: construct (``RUNNING``) -> add records -> ``commit()`` or
    ``abort()``.  The constructor links the action into the hierarchy;
    ``independent=True`` with a parent creates a *nested top-level*
    action.
    """

    def __init__(self, node: str = "local", parent: "AtomicAction | None" = None,
                 independent: bool = False) -> None:
        serial = next(_action_serials)
        if parent is not None and not independent:
            path = parent.id.path + (serial,)
        else:
            path = (serial,)
        self.id = ActionId(path, node)
        self.parent = parent if not independent else None
        self.invoker = parent  # dynamic-extent parent, even when independent
        self.independent = independent
        self.status = ActionStatus.RUNNING
        self._records: list[AbstractRecord] = []
        self.commit_failures: list[tuple[AbstractRecord, BaseException]] = []

    # -- structure ----------------------------------------------------------

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    @property
    def is_nested_top_level(self) -> bool:
        return self.independent and self.invoker is not None

    @property
    def records(self) -> list[AbstractRecord]:
        return list(self._records)

    def add_record(self, record: AbstractRecord) -> None:
        # Records may join while RUNNING or -- late enlistment --
        # while PREPARING: a prepare-phase record can touch a resource
        # the action never used before (e.g. state distribution
        # Excluding a crashed store reaches a replica shard for the
        # first time), and 2PC is free to admit participants up to the
        # moment the decision is taken.  Prepare processes records in
        # waves until none are new, so a late joiner still votes.
        if self.status not in (ActionStatus.RUNNING, ActionStatus.PREPARING):
            raise InvalidActionState(
                f"{self.id}: cannot add records while {self.status.value}")
        self._records.append(record)

    # -- termination -----------------------------------------------------------

    def commit(self) -> Generator[Any, Any, ActionStatus]:
        """Commit the action; yields through record generators (RPCs)."""
        self._require_running()
        if self.is_top_level:
            return (yield from self._commit_top_level())
        return (yield from self._commit_nested())

    def abort(self) -> Generator[Any, Any, ActionStatus]:
        """Abort the action, undoing every record in reverse order."""
        if self.status in (ActionStatus.COMMITTED, ActionStatus.ABORTED):
            raise InvalidActionState(f"{self.id}: already {self.status.value}")
        yield from self._abort_records(self._records)
        self.status = ActionStatus.ABORTED
        return self.status

    def run_local(self, generator: Generator[Any, Any, Any]) -> Any:
        """Drive a commit/abort generator that never actually yields.

        Purely local actions (no RPC-backed records) complete without
        suspending; this helper saves tests and local callers from
        spinning up a scheduler.
        """
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value
        raise InvalidActionState(
            f"{self.id}: action has remote participants; commit it from a process")

    # -- internals ------------------------------------------------------------

    def _require_running(self) -> None:
        if self.status is not ActionStatus.RUNNING:
            raise InvalidActionState(f"{self.id}: is {self.status.value}")

    def _commit_top_level(self) -> Generator[Any, Any, ActionStatus]:
        self.status = ActionStatus.PREPARING
        prepared: list[tuple[AbstractRecord, Vote]] = []
        voted: set[int] = set()
        while True:
            # Wave-by-wave: a record's prepare may enlist further
            # records (late enlistment); every joiner votes before the
            # decision is taken.
            wave = [r for r in self._records if id(r) not in voted]
            if not wave:
                break
            voted.update(id(r) for r in wave)
            wave.sort(key=lambda r: r.order)
            for _order, group_iter in itertools.groupby(
                    wave, key=lambda r: r.order):
                group = list(group_iter)
                # Same-order records have no mutual ordering contract,
                # so the whole group may start phase 1 eagerly before
                # any member awaits a verdict -- this is where RPC-backed
                # records send their prepares, all at one instant.
                for record in group:
                    try:
                        record.begin_prepare(self)
                    except Exception:
                        yield from self._abort_records(self._records)
                        self.status = ActionStatus.ABORTED
                        return self.status
                for record in group:
                    try:
                        vote = yield from record.prepare(self)
                    except Exception:
                        vote = Vote.ABORT
                    if vote is Vote.ABORT:
                        yield from self._abort_records(self._records)
                        self.status = ActionStatus.ABORTED
                        return self.status
                    prepared.append((record, vote))
        self.status = ActionStatus.COMMITTING
        # Re-sort: wave-by-wave prepare voted in enlistment waves, but
        # phase 2 keeps the documented lower-order-first contract even
        # when a late joiner carries a lower order than an early wave.
        prepared.sort(key=lambda entry: entry[0].order)
        live = [(record, vote) for record, vote in prepared
                if vote is not Vote.READONLY]
        for _order, group_iter in itertools.groupby(
                live, key=lambda entry: entry[0].order):
            group = list(group_iter)
            for record, _vote in group:
                try:
                    record.begin_commit(self)
                except Exception as exc:
                    self.commit_failures.append((record, exc))
            for record, _vote in group:
                try:
                    yield from record.commit(self)
                except Exception as exc:
                    # Phase-2 failures cannot abort a decided action; they
                    # are remembered for heuristic resolution by the caller.
                    self.commit_failures.append((record, exc))
        self.status = ActionStatus.COMMITTED
        return self.status

    def _commit_nested(self) -> Generator[Any, Any, ActionStatus]:
        assert self.parent is not None
        self.parent._require_running()
        self.status = ActionStatus.COMMITTING
        for record in self._records:
            record.merge_into_parent(self.parent)
        self.status = ActionStatus.COMMITTED
        return self.status
        yield  # pragma: no cover - kept a generator for interface symmetry

    def _abort_records(self, records: list[AbstractRecord]) -> Generator[Any, Any, None]:
        ordered = sorted(records, key=lambda r: r.order, reverse=True)
        for _order, group_iter in itertools.groupby(
                ordered, key=lambda r: r.order):
            group = list(group_iter)
            for record in group:
                # One record's failing abort must not stop the others'.
                try:
                    record.begin_abort(self)
                except Exception:
                    pass
            for record in group:
                try:
                    yield from record.abort(self)
                except Exception:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AtomicAction {self.id} {self.status.value}>"


def abort_on_failure(action: AtomicAction) -> Generator[Any, Any, None]:
    """Terminate a still-live action from an exception handler.

    The canonical tail of the abort-on-failure invariant (enforced
    repo-wide by ``repro.analysis``'s ``action-leak`` rule)::

        action = AtomicAction(...)
        try:
            ...
        except BaseException:
            yield from abort_on_failure(action)
            raise

    Two subtleties live here so call sites stay uniform:

    - An action the body already resolved (``commit()`` raised after
      deciding, or an inner handler aborted before re-raising) is left
      alone -- double-abort would raise :class:`InvalidActionState`
      from inside a handler and mask the original error.
    - Under ``GeneratorExit`` (the enclosing generator is being
      closed -- abandoned by its driver or collected) yielding is
      illegal, so the abort is skipped: the RPCs it would need cannot
      be sent from a closing generator.  Remote participants are then
      resolved by presumed-abort and the cleanup daemons, exactly as
      for a client that crashed at this point.
    """
    if action.status in (ActionStatus.COMMITTED, ActionStatus.ABORTED):
        return
    exc = sys.exc_info()[1]
    if isinstance(exc, GeneratorExit):
        return
    yield from action.abort()
