"""Reusable intention records.

- :class:`CallbackRecord` -- adapts plain callables into a record; used
  by layers that need ad-hoc prepare/commit/abort behaviour without a
  dedicated class.
- :class:`RemoteParticipantRecord` -- the RPC plumbing shared by every
  remote 2PC participant (a service exposing ``commit``/``abort``, and
  perhaps ``prepare``, keyed by action id); subclasses decide the vote.
- :class:`ToldParticipantRecord` -- a participant whose vote is known
  beforehand: never sent ``prepare``, told the outcome.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.actions.action import AbstractRecord, AtomicAction, Vote
from repro.net.batch import CommitBatcher
from repro.net.errors import RpcError
from repro.net.rpc import RpcAgent
from repro.sim.futures import Future
from repro.sim.process import Timeout
from repro.sim.rng import SeededRng


class CallbackRecord(AbstractRecord):
    """A record assembled from plain callables.

    Each callable is optional; ``on_prepare`` may return a
    :class:`Vote` (``None`` counts as OK).  Callables run synchronously;
    use :class:`RemoteParticipantRecord` or a custom record when the
    phase needs to suspend on RPC.
    """

    def __init__(
        self,
        on_prepare: Callable[[AtomicAction], Vote | None] | None = None,
        on_commit: Callable[[AtomicAction], None] | None = None,
        on_abort: Callable[[AtomicAction], None] | None = None,
        order: int = 100,
    ) -> None:
        self._on_prepare = on_prepare
        self._on_commit = on_commit
        self._on_abort = on_abort
        self.order = order

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        if self._on_prepare is None:
            return Vote.READONLY if self._on_commit is None else Vote.OK
        vote = self._on_prepare(action)
        return vote if vote is not None else Vote.OK
        yield  # pragma: no cover

    def commit(self, action: AtomicAction) -> Generator[Any, Any, None]:
        if self._on_commit is not None:
            self._on_commit(action)
        return
        yield  # pragma: no cover

    def abort(self, action: AtomicAction) -> Generator[Any, Any, None]:
        if self._on_abort is not None:
            self._on_abort(action)
        return
        yield  # pragma: no cover


class RemoteParticipantRecord(AbstractRecord):
    """The RPC plumbing of a 2PC participant reached over the network.

    The remote service exposes ``commit(action_id_path)`` and
    ``abort(action_id_path)`` (action ids travel as their path tuples);
    how the vote is had is the subclass's: a
    :class:`ToldParticipantRecord` already holds it, and
    :class:`~repro.replication.commit.ServerParticipantRecord` asks the
    server host.  An unreachable participant's abort is ignored.

    Every phase starts eagerly: the ``begin_*`` hooks issue the phase's
    RPC for every same-order participant of an action at one virtual
    instant, and the phase generators then merely await the call's own
    verdict -- one round trip per 2PC phase however many participants
    share the order.  With a ``batcher`` (the owning node's
    :class:`~repro.net.batch.CommitBatcher`) those same-instant calls,
    and every concurrent action's on this node, additionally coalesce
    into one ``_many`` call per target.  Votes, presumed abort, and
    heuristic reporting are untouched.
    """

    def __init__(self, rpc: RpcAgent, target: str, service: str,
                 order: int = 500,
                 batcher: CommitBatcher | None = None) -> None:
        # Both expose ``call(target, service, method, *args)``.
        self._transport = batcher or rpc
        self.target = target
        self.service = service
        self.order = order
        self._pending: Future | None = None

    def _issue(self, method: str, action: AtomicAction) -> Future:
        return self._transport.call(self.target, self.service, method,
                                    action.id.path)

    def _take_pending(self, method: str, action: AtomicAction) -> Future:
        future = self._pending
        self._pending = None
        return future if future is not None else self._issue(method, action)

    def begin_commit(self, action: AtomicAction) -> None:
        self._pending = self._issue("commit", action)

    def begin_abort(self, action: AtomicAction) -> None:
        self._pending = self._issue("abort", action)

    def abort(self, action: AtomicAction) -> Generator[Any, Any, None]:
        try:
            yield self._take_pending("abort", action)
        except RpcError:
            pass  # participant down; its crash already undid volatile state


class ToldParticipantRecord(RemoteParticipantRecord):
    """2PC participant that is never polled: it is told the outcome.

    For a participant whose vote the coordinator already holds -- the
    naming database.  One that *acknowledged a write* under the action
    can only answer ``ok`` (it votes from its undo log, which only
    commit/abort consume), so the acknowledgement was the vote; one the
    action merely *read* at has nothing to vote on.  Phase 1 therefore
    sends nothing, and the outcome goes out with the rest of the
    record's order: at the default 500 that is the servers' ``commit``
    instant, *after* the stores promoted their shadows, so the read
    locks the participant holds for the action outlive the promotion.

    ``commit`` does go out to a participant that was only read at --
    where a polled one would have released its locks on a ``readonly``
    vote -- and there it is the action's lock release.  ``retries``
    bounds re-sends of it for *gray* participants: a degraded host drops
    or delays RPCs without being down, and one lost message would leak
    those locks.  Each re-send backs off exponentially from ``backoff``
    with seeded jitter drawn from ``rng`` (a
    :class:`~repro.sim.rng.SeededRng` substream -- determinism is an
    invariant); ``commit`` is idempotent at the database.  A
    participant still dark after the budget is a heuristic
    (``commit_failures``), never an abort: the decision is taken.
    Abort stays best-effort.

    ``on_resolved`` is called once the participant's part is over --
    after its ``commit`` or ``abort`` -- so whoever enlisted the record
    can forget it.
    """

    def __init__(self, rpc: RpcAgent, target: str, service: str,
                 order: int = 500,
                 batcher: CommitBatcher | None = None,
                 retries: int = 0, backoff: float = 0.05,
                 rng: SeededRng | None = None,
                 on_resolved: Callable[[], None] | None = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retries and rng is None:
            raise ValueError("outcome retries need a seeded rng for jitter")
        super().__init__(rpc, target, service, order=order, batcher=batcher)
        self._retries = retries
        self._backoff = backoff
        self._rng = rng
        self._resolved = on_resolved

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        return Vote.OK
        yield  # pragma: no cover

    def commit(self, action: AtomicAction) -> Generator[Any, Any, None]:
        try:
            for attempt in range(self._retries + 1):
                try:
                    yield self._take_pending("commit", action)
                    return
                except RpcError:
                    if attempt == self._retries:
                        raise
                delay = self._backoff * (2 ** attempt)
                assert self._rng is not None  # enforced in __init__
                yield Timeout(delay + self._rng.uniform(0.0, delay))
        finally:
            if self._resolved is not None:
                self._resolved()

    def abort(self, action: AtomicAction) -> Generator[Any, Any, None]:
        try:
            yield from super().abort(action)
        finally:
            if self._resolved is not None:
                self._resolved()
