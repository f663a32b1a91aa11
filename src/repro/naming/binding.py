"""The three client binding schemes of paper figures 6-8.

A binding scheme decides how a client consults the Object Server
database and binds to servers for an object:

- :class:`StandardBinding` (figure 6, section 4.1.2): ``GetServer`` runs
  as a *nested atomic action* of the client action.  The read lock on
  the entry is inherited and held until the client's top-level action
  ends.  The one lookup returns ``St`` beside ``Sv`` (the client pays
  the name node once per bind, not once per half).  ``Sv`` is treated
  as a static set: clients never remove nodes they find dead, so every
  client re-discovers failed servers "the hard way" at binding time.
  If all clients are read-only, each may bind to any single convenient
  server instead of the full group.

- :class:`IndependentTopLevelBinding` (figure 7, section 4.1.3(i)): the
  database work runs in its own *independent top-level actions*.  The
  first returns ``Sv`` plus use lists (the same lookup reads ``St``
  under the client action); if all use lists are empty the
  client may pick any subset to activate, otherwise it must bind to the
  servers already in use (non-zero counters).  Failed servers are
  ``Remove``d and successful bindings ``Increment``ed before that first
  action commits.  After the client action terminates, a final
  top-level action ``Decrement``s.  ``Sv`` therefore stays relatively
  fresh, at the cost of a use-list lock on every binding and a cleanup
  obligation when clients crash between the two actions.  The paper
  write-locks ``Increment`` and ``Decrement``; here they take the
  type-specific INCREMENT and DECREMENT modes
  (:mod:`repro.actions.locks`): binders still exclude each other, but
  an unbind's Decrement shares the entry with a binder and with other
  Decrements, so only a ``Remove`` or ``Insert``, a snapshot read or a
  maintenance probe refuses it.  Binders serialise by waiting: a
  binder's first lookup that finds an older binder holding the entry
  parks at the name node until that one ends (a younger holder still
  refuses it, and the client action retries).

- :class:`NestedTopLevelBinding` (figure 8, section 4.1.3(ii)): the same
  two database actions, but invoked from *within* the client action as
  nested top-level actions.  Their effects commit independently of the
  client action's fate.

Schemes are written against an abstract :class:`Binder` callback so the
naming layer stays independent of server activation mechanics (the
cluster layer supplies the real binder).
"""

from __future__ import annotations

import abc
import functools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Protocol

from repro.actions.action import AtomicAction, abort_on_failure
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.naming.errors import NamingError
from repro.net.errors import RpcError
from repro.sim.futures import Future
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid


class BindFailed(NamingError):
    """The scheme could not bind the client to any server."""


class StEmpty(BindFailed):
    """``St`` names no store: no state to activate a server from."""


class Binder(Protocol):
    """Cluster-layer callback: start activating/binding one server.

    ``st_hosts`` is the ``St`` view the scheme read for the object (the
    stores an activating server may load its state from).  Issues the
    attempt and returns its future at once, so a scheme can have every
    candidate's attempt in flight together.  The future
    resolves to something true if the server on ``host`` is (now)
    running and bound for the action; it resolves to something false,
    or fails with an ``RpcError``, if the host is unreachable or
    refused.
    """

    def __call__(self, host: str, uid: Uid, action: AtomicAction,
                 st_hosts: list[str]) -> Future: ...


@dataclass
class BindOutcome:
    """Result of one binding round."""

    uid: Uid
    bound_hosts: list[str] = field(default_factory=list)
    failed_hosts: list[str] = field(default_factory=list)
    sv_hosts: list[str] = field(default_factory=list)
    st_hosts: list[str] = field(default_factory=list)
    use_lists_were_empty: bool = True

    @property
    def bound(self) -> bool:
        return bool(self.bound_hosts)


class BindingScheme(abc.ABC):
    """Common plumbing for the three schemes."""

    name = "abstract"

    def __init__(self, db: ShardedGroupViewDbClient, client_node: str,
                 metrics: MetricsRegistry | None = None,
                 rng: Any | None = None) -> None:
        self.db = db
        self.client_node = client_node
        self.metrics = metrics or MetricsRegistry()
        # Seeded stream for unbind-retry jitter; None = no jitter
        # (single-client tests where lockstep cannot collide).
        self.rng = rng

    @abc.abstractmethod
    def bind(self, action: AtomicAction, uid: Uid, binder: Binder,
             k: int | None = None,
             read_only: bool = False) -> Generator[Any, Any, BindOutcome]:
        """Bind the client action to servers for ``uid``.

        ``k`` limits how many servers to activate (``None`` = all of
        ``Sv``); the replication policy chooses it.  Raises
        :class:`BindFailed` if no server could be bound (the client
        action must then abort).
        """

    def unbind(self, uid: Uid,
               outcome: BindOutcome,
               within_action: AtomicAction | None = None) -> Generator[Any, Any, None]:
        """Release binding-related database state after the client action.

        The standard scheme has nothing to do (its read lock dies with
        the client action); the use-list schemes ``Decrement`` here.
        """
        return
        yield  # pragma: no cover

    # -- shared helpers ---------------------------------------------------

    def _over_stores(self, binder: Binder, uid: Uid,
                     st_hosts: list[str]) -> Callable[..., Future]:
        """``binder`` with the ``St`` view just read filled in; an empty
        view holds no state to activate a server from."""
        if not st_hosts:
            raise StEmpty(str(uid))
        return functools.partial(binder, st_hosts=st_hosts)

    def _attempt_binds(self, action: AtomicAction, uid: Uid,
                       binder: Callable[..., Future], candidates: list[str],
                       k: int | None) -> Generator[Any, Any, tuple[list[str], list[str]]]:
        """Bind up to ``k`` of ``candidates``; returns (bound, failed).

        When every candidate must be tried anyway (``k`` is ``None`` or
        no smaller than their number) all attempts go out at this
        instant and are collected in list order: one round trip for the
        whole set.  A ``k``-limited bind stays try-until-``k`` -- each
        attempt is issued only once the previous one has failed --
        because an attempt past the ``k``-th success would activate a
        server nobody asked for.
        """
        bound: list[str] = []
        failed: list[str] = []
        attempts: Iterable[tuple[str, Future]] = (
            (host, binder(host, uid, action)) for host in candidates)
        if k is None or k >= len(candidates):
            attempts = list(attempts)
        for host, attempt in attempts:
            self.metrics.counter(f"binding.{self.name}.attempts").increment()
            try:
                ok = yield attempt
            except RpcError:
                ok = False
            if ok:
                bound.append(host)
                if len(bound) == k:
                    break
            else:
                failed.append(host)
                self.metrics.counter(f"binding.{self.name}.failed_attempts").increment()
        return bound, failed


class StandardBinding(BindingScheme):
    """Figure 6: GetServer as a nested action; Sv is static."""

    name = "standard"

    def __init__(self, *args: Any, read_only_single_server: bool = True,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.read_only_single_server = read_only_single_server

    def bind(self, action: AtomicAction, uid: Uid, binder: Binder,
             k: int | None = None,
             read_only: bool = False) -> Generator[Any, Any, BindOutcome]:
        # One lookup: ``Sv`` under the nested GetServer action, ``St``
        # under the client action itself -- its read lock on ``St`` is
        # the one a commit-time Exclude promotes.
        nested = AtomicAction(node=self.client_node, parent=action)
        try:
            sv, st = yield from self.db.get_binding(nested, uid,
                                                    view_action=action)
        except RpcError:
            yield from nested.abort()
            raise
        yield from nested.commit()
        binder = self._over_stores(binder, uid, st)

        if read_only and self.read_only_single_server:
            # Read optimisation (end of section 4.1.2): concurrent readers
            # may activate disjoint servers; bind to any one convenient
            # node.  "Convenient" is a stable per-client rotation so that
            # readers spread over the replicas instead of piling onto the
            # first Sv entry.
            rotation = zlib.crc32(self.client_node.encode()) % max(len(sv), 1)
            candidates = list(sv[rotation:]) + list(sv[:rotation])
            bound, failed = yield from self._attempt_binds(
                action, uid, binder, candidates, k=1)
        else:
            bound, failed = yield from self._attempt_binds(
                action, uid, binder, list(sv), k)

        outcome = BindOutcome(uid, bound, failed, sv_hosts=list(sv),
                              st_hosts=list(st))
        if not outcome.bound:
            raise BindFailed(
                f"no server for {uid} reachable (tried {len(failed)} hosts)")
        return outcome


class IndependentTopLevelBinding(BindingScheme):
    """Figure 7: database work in separate independent top-level actions."""

    name = "independent"

    def _db_action(self, action: AtomicAction) -> AtomicAction:
        """The bind-side database action (independent of the client's)."""
        return AtomicAction(node=self.client_node)

    def _unbind_action(self,
                       within_action: AtomicAction | None) -> AtomicAction:
        """The unbind-side database action."""
        return AtomicAction(node=self.client_node)

    def bind(self, action: AtomicAction, uid: Uid, binder: Binder,
             k: int | None = None,
             read_only: bool = False) -> Generator[Any, Any, BindOutcome]:
        # One lookup, two owners: ``St`` is read under the client action
        # (it holds the read lock to its end), ``Sv`` and its use lists
        # under ``first``, INCREMENT-locked for the Increment to come.
        first = self._db_action(action)
        try:
            snapshot, st = yield from self.db.get_binding_with_uses(
                first, uid, view_action=action)
            binder = self._over_stores(binder, uid, st)
            if snapshot.all_uses_empty:
                candidates = list(snapshot.hosts)
                limit = k
            else:
                # The object is already activated somewhere: bind only to
                # the servers with non-zero counters, preserving mutual
                # consistency.
                candidates = snapshot.used_hosts()
                limit = None  # must join every active server
            bound, failed = yield from self._attempt_binds(
                action, uid, binder, candidates, limit)
            for host in failed:
                yield from self.db.remove(first, uid, host)
            if bound:
                yield from self.db.increment(first, self.client_node, uid,
                                             bound)
        except BaseException as exc:
            # Abort on *any* failure, not just unreachability: ``first``
            # is a top-level action of its own, so nobody upstream will
            # ever terminate it, and the locks and provisional writes it
            # holds on the replicas it already reached would leak
            # forever.  BaseException, not Exception: a killed client
            # process (node crash mid-bind) must release what it can
            # before the kill propagates.  A LockRefused from one
            # replica of a fan-out write is routine under replication
            # (a resync, anti-entropy, or arc-migration copy holds the
            # entry for an instant).
            yield from abort_on_failure(first)
            if isinstance(exc, RpcError):
                raise BindFailed(
                    f"database unavailable while binding {uid}") from exc
            raise
        status = yield from first.commit()
        if status.value != "committed":
            raise BindFailed(f"binding action aborted for {uid}")

        outcome = BindOutcome(uid, bound, failed, sv_hosts=list(snapshot.hosts),
                              st_hosts=list(st),
                              use_lists_were_empty=snapshot.all_uses_empty)
        if not outcome.bound:
            raise BindFailed(f"no server for {uid} reachable")
        return outcome

    # How often a refused Decrement is retried before falling back to
    # the janitor's purge (the entry may be write-locked by a Remove or
    # held by a snapshot read).
    unbind_attempts = 8
    unbind_backoff = 0.05

    def unbind(self, uid: Uid, outcome: BindOutcome,
               within_action: AtomicAction | None = None) -> Generator[Any, Any, None]:
        if not outcome.bound_hosts:
            return
        from repro.actions.errors import LockRefused
        from repro.sim.process import Timeout
        for attempt in range(self.unbind_attempts):
            last = self._unbind_action(within_action)
            try:
                yield from self.db.decrement(last, self.client_node, uid,
                                             outcome.bound_hosts)
            except LockRefused:
                yield from last.abort()
                delay = self.unbind_backoff * (attempt + 1)
                if self.rng is not None:
                    # Jitter so unbinds refused by the same lock do not
                    # retry in lockstep and re-collide forever.
                    delay += self.rng.uniform(0.0, delay)
                yield Timeout(delay)
                continue
            except RpcError:
                yield from last.abort()
                return  # the janitor's purge repairs the counters
            except BaseException:
                # Same leak rule as bind: a top-level action must always
                # terminate, whatever the failure -- including
                # non-Exception ones like a process kill.
                yield from abort_on_failure(last)
                raise
            yield from last.commit()
            return
        self.metrics.counter(f"binding.{self.name}.unbind_gave_up").increment()


class NestedTopLevelBinding(IndependentTopLevelBinding):
    """Figure 8: the same database actions, as nested top-level actions.

    Structurally identical to the independent scheme except the two
    database actions are created *inside* the client action's dynamic
    extent (``independent=True`` children), so a single client turn
    makes one pass over the network inside the action instead of
    bracketing it.  Their effects still commit independently of the
    client action.
    """

    name = "nested_top_level"

    def _db_action(self, action: AtomicAction) -> AtomicAction:
        return AtomicAction(node=self.client_node, parent=action,
                            independent=True)

    def _unbind_action(self,
                       within_action: AtomicAction | None) -> AtomicAction:
        return AtomicAction(node=self.client_node, parent=within_action,
                            independent=within_action is not None)
