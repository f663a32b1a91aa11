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

- **prepare**: fetch the object's state from a live bound server that
  holds the action's writes, write it as a *shadow* (version ``v+1``)
  to every ``St`` store -- all at one instant, one round trip -- and
  collect each store's own verdict; stores that stay silent are
  ``Exclude``d under the same action.  Votes ABORT if no such server
  remains, if every store failed, if a store *refuses* the shadow (it
  already holds a state this new: the fetched one was stale), or if the
  exclusion's lock promotion is refused.
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
from repro.cluster.server_host import SERVER_SERVICE
from repro.cluster.store_host import STORE_SERVICE
from repro.net.errors import RpcError, RpcTimeout
from repro.replication.policy import PolicyBinding, TxnContext
from repro.sim.futures import Future


class StateDistributionRecord(AbstractRecord):
    """Copies a modified object's state to its ``St`` stores at commit."""

    order = 300  # before server hosts (500) and the naming db (600)

    def __init__(self, ctx: TxnContext, binding: PolicyBinding,
                 sources: list[str] | None = None) -> None:
        """``sources`` names the bound servers that hold the action's
        writes, in fetch order (default: every live one)."""
        self._ctx = ctx
        self._binding = binding
        self._sources = sources
        self.prepared_hosts: list[str] = []
        self.excluded_hosts: list[str] = []
        self.late_excluded_hosts: list[str] = []
        self._new_version: int | None = None

    # -- phase 1 ---------------------------------------------------------

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        ctx, binding = self._ctx, self._binding
        uid = binding.uid

        state = yield from self._fetch_state()
        if state is None:
            return Vote.ABORT
        buffer, version = state
        self._new_version = version + 1

        # One round: every store's shadow write goes out now, then each
        # write's own verdict is collected.  Silence is the only sign of
        # a failed store; a store that *answers* with a refusal is
        # healthy and already holds a state at least this new -- the
        # state fetched above was stale, and the action must not commit
        # it anywhere, let alone Exclude the store that said so.
        failures: list[str] = []
        refused = False
        for st_host, write in self._fan_out(
                binding.st_hosts, "write_shadow", buffer, self._new_version):
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

    def _fetch_state(self) -> Generator[Any, Any, tuple[bytes, int] | None]:
        """State of the object from the first source that answers."""
        ctx, binding = self._ctx, self._binding
        source_order = self._sources or list(binding.live_hosts)
        for host in source_order:
            try:
                buffer, version = yield ctx.rpc.call(
                    host, SERVER_SERVICE, "get_state", str(binding.uid))
            except RpcError:
                binding.break_binding(host)
                continue
            return buffer, version
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
            # The cleanup/recovery protocols remain the backstop.
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
