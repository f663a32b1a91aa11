"""Active replication (paper section 2.3, policy i).

More than one copy of the object is activated and *all* activated
copies perform processing.  Invocations are delivered to the replica
group by multicast; with the reliable ordered member every functioning
replica sees the same operation sequence, so replicas stay mutually
consistent and up to k-1 replica failures are masked (the object stays
available while at least one replica functions).

Replicas that fail to answer within the reply window are presumed
crashed: their bindings are broken and never repaired within the action
(section 3.1).  If every replica is silent the action aborts -- which
is what a crash of the group's *sequencer* (its first bound member:
every multicast is submitted through it) looks like, so that one
member's crash is not masked; a new sequencer would be a new group
view, i.e. a repair within the action.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction
from repro.cluster.errors import TxnAborted
from repro.cluster.server_host import SERVER_SERVICE
from repro.net.errors import RpcError
from repro.replication.policy import PolicyBinding, ReplicationPolicy, TxnContext


class ActiveReplication(ReplicationPolicy):
    """All activated replicas process every invocation."""

    name = "active"

    def __init__(self, degree: int | None = None) -> None:
        """``degree`` limits how many replicas to activate (None = all of Sv)."""
        self.degree = degree

    def activation_degree(self) -> int | None:
        return self.degree

    def _after_bind(self, ctx: TxnContext, binding: PolicyBinding,
                    action: AtomicAction) -> Generator[Any, Any, None]:
        """Every bound server joins the object's invocation group."""
        members = list(binding.live_hosts)
        joins = [(host, ctx.rpc.call(host, SERVER_SERVICE, "join_group",
                                     str(binding.uid), members))
                 for host in members]
        for host, join in joins:
            try:
                yield join
            except RpcError:
                binding.break_binding(host)
        if not binding.live_hosts:
            raise TxnAborted(f"group_join_failed:{binding.uid}")

    def invoke(self, ctx: TxnContext, binding: PolicyBinding,
               action: AtomicAction, op: str, args: tuple,
               is_write: bool) -> Generator[Any, Any, Any]:
        if not binding.live_hosts:
            raise TxnAborted(f"all_replicas_gone:{binding.uid}")
        result = yield from ctx.invoker.invoke(
            list(binding.live_hosts), binding.uid, action.id.path, op, args)

        silent = [h for h in binding.live_hosts if h not in result.responders]
        for host in silent:
            binding.break_binding(host)
        if not result.responders:
            raise TxnAborted(f"all_replicas_silent:{binding.uid}")
        if silent:  # masked means absorbed: somebody answered
            ctx.metrics.counter("policy.active.replicas_masked").increment(
                len(silent))
        if not result.any_success:
            error_type, error_message = result.first_error()
            if error_type in ("LockRefused", "PromotionRefused"):
                raise TxnAborted(f"lock_refused:{binding.uid}")
            raise TxnAborted(f"replica_error:{error_type}:{error_message}")
        if is_write:
            binding.modified = True
        return result.first_value()
