"""The replication policy strategy interface.

A policy decides, per object: how many servers to activate, how to
route invocations to the activated replicas, and what happens at commit
time.  Policies speak to the rest of the system through a
:class:`TxnContext` -- the bundle of client-node facilities a
transaction has (RPC agent, naming database client, binding scheme,
group invoker, registry, metrics).

The binding-lifetime rule of paper section 3.1 is enforced here:
bindings are created as invocations are first made; a binding broken by
a server crash is never repaired during the action; all bindings end
with the action.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Any, Generator, TYPE_CHECKING

from repro.actions.action import AtomicAction
from repro.cluster.server_host import SERVER_SERVICE
from repro.core.objects import ObjectClassRegistry
from repro.naming.binding import BindOutcome, BindingScheme
from repro.naming.sharded_client import ShardedGroupViewDbClient
from repro.net.rpc import RpcAgent
from repro.sim.futures import Future
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.group_invoke import GroupInvoker
    from repro.cluster.node import Node


@dataclass
class TxnContext:
    """Client-node facilities available to a transaction."""

    node: "Node"
    rpc: RpcAgent
    db: ShardedGroupViewDbClient
    scheme: BindingScheme
    invoker: "GroupInvoker"
    registry: ObjectClassRegistry
    metrics: MetricsRegistry
    node_policy: "ReplicationPolicy | None" = None


@dataclass
class PolicyBinding:
    """Per-object, per-transaction binding state."""

    uid: Uid
    outcome: BindOutcome
    live_hosts: list[str]
    st_hosts: list[str]
    modified: bool = False
    coordinator_index: int = 0

    @property
    def coordinator(self) -> str:
        return self.live_hosts[self.coordinator_index]

    def break_binding(self, host: str) -> None:
        """Mark a binding broken (never repaired within the action)."""
        if host in self.live_hosts:
            index = self.live_hosts.index(host)
            self.live_hosts.remove(host)
            if index <= self.coordinator_index and self.coordinator_index > 0:
                self.coordinator_index -= 1


class ReplicationPolicy(abc.ABC):
    """Strategy: activation degree, invocation routing, commit handling."""

    name = "abstract"

    @abc.abstractmethod
    def activation_degree(self) -> int | None:
        """How many servers to activate (``None`` = all of ``Sv``)."""

    @abc.abstractmethod
    def invoke(self, ctx: TxnContext, binding: PolicyBinding,
               action: AtomicAction, op: str, args: tuple,
               is_write: bool) -> Generator[Any, Any, Any]:
        """Route one invocation; raises
        :class:`~repro.cluster.errors.TxnAborted` when the object has
        become unusable for this action."""

    def bind(self, ctx: TxnContext, action: AtomicAction, uid: Uid,
             read_only: bool = False) -> Generator[Any, Any, PolicyBinding]:
        """Bind the action to servers for ``uid`` via the binding scheme.

        The scheme reads the entry (``St`` under the action itself --
        read lock on the entry, as the paper's figure-6 discussion
        prescribes for a freshly created server), then selects and
        activates servers through :meth:`_activate`.
        """
        outcome = yield from ctx.scheme.bind(
            action, uid, functools.partial(self._activate, ctx),
            k=self.activation_degree(), read_only=read_only)
        binding = PolicyBinding(uid, outcome, list(outcome.bound_hosts),
                                list(outcome.st_hosts))
        yield from self._after_bind(ctx, binding, action)
        return binding

    def _after_bind(self, ctx: TxnContext, binding: PolicyBinding,
                    action: AtomicAction) -> Generator[Any, Any, None]:
        """Hook for policy-specific post-bind work (e.g. group joins)."""
        return
        yield  # pragma: no cover

    def _activate(self, ctx: TxnContext, host: str, uid: Uid,
                  action: AtomicAction, st_hosts: list[str]) -> Future:
        """Start activating the server on ``host`` (the scheme's binder).

        The reply is a (truthy) status record -- "activated" or already
        "bound"; a refusal arrives as an ``RpcError``.  Activation may
        fall back across several stores server-side, each costing up to
        one RPC timeout; give the call room.
        """
        window = ctx.rpc.default_timeout * (len(st_hosts) + 1)
        return ctx.rpc.call(host, SERVER_SERVICE, "activate",
                            action.id.path, str(uid), list(st_hosts),
                            timeout=window)

    def on_commit(self, ctx: TxnContext, binding: PolicyBinding,
                  action: AtomicAction) -> None:
        """Attach commit-time records for a modified object."""
        if not binding.modified:
            return
        from repro.replication.commit import StateDistributionRecord
        action.add_record(StateDistributionRecord(ctx, binding))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"
