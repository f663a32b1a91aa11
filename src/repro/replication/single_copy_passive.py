"""Single copy passive replication (paper section 2.3, policy iii).

Only one copy is activated; it checkpoints its state to the object
stores as part of commit processing.  If the activated copy fails, the
affected atomic action must abort -- restarting the action activates a
new copy (possibly on a different ``Sv`` node, which is where the
paper's figure-3 configuration gets its availability).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction
from repro.actions.errors import LockRefused
from repro.cluster.errors import TxnAborted
from repro.cluster.server_host import SERVER_SERVICE
from repro.naming.db_client import raise_mapped
from repro.net.errors import RpcError, RpcRemoteError
from repro.replication.policy import PolicyBinding, ReplicationPolicy, TxnContext


class SingleCopyPassive(ReplicationPolicy):
    """One activated server; state replicated only in the stores."""

    name = "single_copy_passive"

    def activation_degree(self) -> int | None:
        return 1

    def invoke(self, ctx: TxnContext, binding: PolicyBinding,
               action: AtomicAction, op: str, args: tuple,
               is_write: bool) -> Generator[Any, Any, Any]:
        if not binding.live_hosts:
            raise TxnAborted(f"server_gone:{binding.uid}")
        host = binding.live_hosts[0]
        try:
            value = yield ctx.rpc.call(host, SERVER_SERVICE, "invoke",
                                       action.id.path, str(binding.uid),
                                       op, tuple(args), ctx.node.outcomes.ref)
        except RpcRemoteError as exc:
            if exc.remote_type == "KeyError":
                # The node answered but has no server for the object: it
                # crashed and recovered within the action, losing its
                # volatile replica.  The binding is broken (section 3.1)
                # and must not be repaired: abort.
                binding.break_binding(host)
                raise TxnAborted(f"server_lost_state:{binding.uid}") from None
            try:
                raise_mapped(exc)
            except LockRefused:
                raise TxnAborted(f"lock_refused:{binding.uid}") from None
            raise
        except RpcError:
            # The single copy failed: the action must abort (section 2.3).
            binding.break_binding(host)
            ctx.metrics.counter("policy.single_copy.server_failures").increment()
            raise TxnAborted(f"server_crashed:{binding.uid}") from None
        if is_write:
            binding.modified = True
        return value
