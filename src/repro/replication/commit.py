"""Commit-time state distribution with store exclusion.

Paper section 4.2 (and the per-configuration rules of section 3.2): at
commit time the new state of a modified object must be copied to the
object stores of all the nodes in ``St``; nodes for which the copy
fails must be *Excluded* from ``St`` so the set keeps naming only
mutually-consistent, latest-state stores.  The exclusion requires
promoting the read lock held on the database entry (or taking the
shareable exclude-write lock, section 4.2.1); a refused promotion
aborts the action.

The record runs in the client's top-level commit:

- **prepare**: take the object's state from the prepare reply of a
  live bound server that holds the action's writes -- the copy is of
  the state that server is being asked to prepare, so its ``ok`` vote
  carries it and the bound server hosts are sent ``prepare`` at this
  record's first instant (:class:`ServerParticipantRecord`) -- write it
  as a *shadow* (version ``v+1``) to every ``St`` store, all at one
  instant, one round trip, and collect each store's own verdict; stores
  that stay silent are ``Exclude``d under the same action.  Votes ABORT
  if no such server remains, if every store failed, if a store
  *refuses* the shadow (it already holds a state this new: the server's
  was stale), or if the exclusion's lock promotion is refused.
- **commit**: promote the shadows to committed states, again in one
  round.  A store that crashes between the two phases loses its shadow
  and keeps its stale state while still being listed in ``St`` -- the
  record closes that window by running a follow-up independent
  top-level Exclude action (heuristic repair; the recovering store
  will refresh and re-Include).
- **abort**: discard the shadows.

The read optimisation of section 4.2.1 lives upstream: unmodified
objects never get this record, so nothing is copied for them.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import (
    AbstractRecord,
    AtomicAction,
    Vote,
    abort_on_failure,
)
from repro.actions.errors import LockRefused
from repro.actions.records import RemoteParticipantRecord
from repro.cluster.server_host import SERVER_SERVICE
from repro.cluster.store_host import STORE_SERVICE
from repro.net.errors import RpcError, RpcTimeout
from repro.replication.policy import PolicyBinding, TxnContext
from repro.sim.futures import Future
from repro.storage.uid import Uid


class ServerParticipantRecord(RemoteParticipantRecord):
    """2PC participant for one bound server host, binding-aware.

    A host whose binding broke during the action (it crashed and the
    policy masked it) votes READONLY instead of failing the prepare
    round -- its volatile state died with it, so there is nothing to
    commit or abort there.

    The host's ``ok`` reply carries the state of every object the
    action wrote there (:attr:`states`), which state distribution
    (order 300) needs before its own phase 1.  That record therefore
    starts this one's prepare early and asks for the vote first; the
    vote is kept, so when the action reaches order 500 there is nothing
    left to send.
    """

    def __init__(self, ctx: TxnContext, host: str,
                 bindings: dict[Uid, PolicyBinding]) -> None:
        super().__init__(ctx.rpc, host, SERVER_SERVICE, order=500)
        self._bindings = bindings
        self._vote: Vote | None = None
        self.states: dict[str, tuple[bytes, int]] = {}

    def _is_live(self) -> bool:
        return any(self.target in b.live_hosts
                   for b in self._bindings.values())

    def begin_prepare(self, action: AtomicAction) -> None:
        if self._vote is None and self._pending is None and self._is_live():
            self._pending = self._issue("prepare", action)

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        if self._vote is None:
            self._vote = yield from self._ask(action)
        return self._vote

    def _ask(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        # Nothing pending means ``begin_prepare`` found the host's
        # bindings broken (or never ran: then look now).
        if self._pending is None and not self._is_live():
            return Vote.READONLY
        try:
            verdict, states = yield self._take_pending("prepare", action)
        except RpcError:
            # The host just crashed.  Break its bindings; whether the
            # action can still commit is the policy's question, answered
            # by the state-distribution record (did a live server hand
            # over the state?).  A crashed participant has no volatile
            # effects to lose, so this is not an automatic veto.
            for binding in self._bindings.values():
                binding.break_binding(self.target)
            return Vote.READONLY
        if verdict != "ok":
            return Vote.READONLY
        self.states = states
        return Vote.OK

    def commit(self, action: AtomicAction) -> Generator[Any, Any, None]:
        try:
            yield self._take_pending("commit", action)
        except RpcError:
            pass  # crashed after prepare: volatile state already gone


def _server_participants(action: AtomicAction) -> list[ServerParticipantRecord]:
    return [record for record in action.records
            if isinstance(record, ServerParticipantRecord)]


class StateDistributionRecord(AbstractRecord):
    """Copies a modified object's state to its ``St`` stores at commit."""

    # Before the outcome fan-out (500: server hosts, name nodes,
    # cohorts): a passive server activating elsewhere reads the stores,
    # and the name node's ``St`` lock must outlive the promotion.
    order = 300

    def __init__(self, ctx: TxnContext, binding: PolicyBinding,
                 sources: list[str] | None = None) -> None:
        """``sources`` names the bound servers that hold the action's
        writes, in order of preference (default: every live one)."""
        self._ctx = ctx
        self._binding = binding
        self._sources = sources
        self.prepared_hosts: list[str] = []
        self.excluded_hosts: list[str] = []
        self.late_excluded_hosts: list[str] = []
        # ``(buffer, version)`` as shadowed at the stores, once prepared.
        self.new_state: tuple[bytes, int] | None = None

    # -- phase 1 ---------------------------------------------------------

    def begin_prepare(self, action: AtomicAction) -> None:
        # The server hosts' prepare reply is the state fetch: ask every
        # bound host now, at this record's first instant.
        for participant in _server_participants(action):
            participant.begin_prepare(action)

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        ctx, binding = self._ctx, self._binding
        uid = binding.uid

        state = yield from self._prepared_state(action)
        if state is None:
            return Vote.ABORT
        buffer, version = state
        self.new_state = buffer, version + 1

        # One round: every store's shadow write goes out now, then each
        # write's own verdict is collected.  Silence is the only sign of
        # a failed store; a store that *answers* with a refusal is
        # healthy and already holds a state at least this new -- the
        # state taken above was stale, and the action must not commit
        # it anywhere, let alone Exclude the store that said so.
        failures: list[str] = []
        refused = False
        for st_host, write in self._fan_out(
                binding.st_hosts, "write_shadow", *self.new_state):
            try:
                yield write
            except RpcTimeout:
                failures.append(st_host)
            except RpcError:
                refused = True
            else:
                self.prepared_hosts.append(st_host)
        if refused:
            ctx.metrics.counter("commit.stale_state_refused").increment()
            return Vote.ABORT

        if not self.prepared_hosts:
            ctx.metrics.counter("commit.all_stores_down").increment()
            return Vote.ABORT

        if failures:
            try:
                yield from ctx.db.exclude(action, [(uid, failures)])
            except LockRefused:
                ctx.metrics.counter("commit.exclude_promotion_refused").increment()
                return Vote.ABORT
            except RpcError:
                return Vote.ABORT
            self.excluded_hosts = failures
            ctx.metrics.counter("commit.stores_excluded").increment(len(failures))
        return Vote.OK

    def _fan_out(self, hosts: list[str], method: str,
                 *args: Any) -> list[tuple[str, Future]]:
        """Issue ``method`` for the object to every store of ``hosts`` at
        this instant (through the commit batcher where the node has
        one); the caller awaits each ``(host, future)`` in list order."""
        call = self._ctx.node.commit_plane.call
        uid_text = str(self._binding.uid)
        return [(st_host, call(st_host, STORE_SERVICE, method, uid_text,
                               *args))
                for st_host in hosts]

    def _prepared_state(self, action: AtomicAction,
                        ) -> Generator[Any, Any, tuple[bytes, int] | None]:
        """State of the object from the first source that voted ``ok``.

        A failover walk over votes already asked for together: the next
        source's reply is read only because the previous host stayed
        silent or no longer holds the action's writes -- either way its
        binding is broken.
        """
        binding = self._binding
        participants = {p.target: p for p in _server_participants(action)}
        for host in self._sources or list(binding.live_hosts):
            participant = participants[host]
            yield from participant.prepare(action)
            state = participant.states.get(str(binding.uid))
            if state is not None:
                return state
            binding.break_binding(host)
        return None

    # -- phase 2 -------------------------------------------------------------

    def commit(self, action: AtomicAction) -> Generator[Any, Any, None]:
        late_failures: list[str] = []
        for st_host, promote in self._fan_out(self.prepared_hosts,
                                              "commit_shadow"):
            try:
                yield promote
            except RpcError:
                late_failures.append(st_host)
        if late_failures:
            if len(late_failures) == len(self.prepared_hosts):
                # Every prepared store crashed between the phases: the
                # decided state survives nowhere stable.  This is the
                # classic 2PC window without a coordinator log; counted
                # so experiments can report it.
                self._ctx.metrics.counter(
                    "commit.durability_lost").increment()
            yield from self._exclude_heuristically(late_failures)

    def _exclude_heuristically(self, hosts: list[str]) -> Generator[Any, Any, None]:
        """Close the phase-2 window with an independent Exclude action."""
        ctx, binding = self._ctx, self._binding
        ctx.metrics.counter("commit.late_exclusions").increment(len(hosts))
        repair = AtomicAction(node=ctx.node.name)
        try:
            yield from ctx.db.exclude(repair, [(binding.uid, hosts)])
        except (LockRefused, RpcError):
            yield from repair.abort()
            # Refused, under plain write locks, by this action's own
            # ``St`` read lock (held until the outcome fan-out).  The
            # next commit's Exclude and the store's recovery remain the
            # backstop.
            return
        except BaseException:
            # Abort-on-failure: the independent Exclude action must
            # terminate on every path or its write locks leak.
            yield from abort_on_failure(repair)
            raise
        yield from repair.commit()
        self.late_excluded_hosts = hosts

    # -- abort -------------------------------------------------------------------

    def abort(self, action: AtomicAction) -> Generator[Any, Any, None]:
        for _st_host, discard in self._fan_out(self.prepared_hosts,
                                               "discard_shadow"):
            try:
                yield discard
            except RpcError:
                pass  # its crash already discarded the shadow
