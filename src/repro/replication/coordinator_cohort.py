"""Coordinator-cohort passive replication (paper section 2.3, policy ii).

Several copies are activated but only one -- the coordinator -- carries
out processing; it checkpoints its state to the cohorts.  If the
coordinator fails, a cohort takes over.

Checkpointing granularity in this implementation: the state the
coordinator prepared travels to the cohorts in the action's last
fan-out, sent by the client that already holds it (so cohorts hold the
last *committed* state).  Consequently a
coordinator failure is masked transparently only while the current
action has not yet updated the object; once the action holds dirty
state that existed solely at the coordinator, its failure forces an
abort (the restarted action then finds a cohort promoted and proceeds
-- availability is preserved even though the action pays one abort).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AbstractRecord, AtomicAction, Vote
from repro.actions.errors import LockRefused
from repro.cluster.errors import TxnAborted
from repro.cluster.server_host import SERVER_SERVICE
from repro.naming.db_client import raise_mapped
from repro.net.errors import RpcError, RpcRemoteError
from repro.replication.commit import StateDistributionRecord
from repro.sim.futures import Future
from repro.replication.policy import PolicyBinding, ReplicationPolicy, TxnContext


class CoordinatorCohortReplication(ReplicationPolicy):
    """One processing coordinator, k-1 standby cohorts."""

    name = "coordinator_cohort"

    def __init__(self, degree: int | None = None) -> None:
        self.degree = degree

    def activation_degree(self) -> int | None:
        return self.degree

    def invoke(self, ctx: TxnContext, binding: PolicyBinding,
               action: AtomicAction, op: str, args: tuple,
               is_write: bool) -> Generator[Any, Any, Any]:
        while True:
            if not binding.live_hosts:
                raise TxnAborted(f"all_replicas_gone:{binding.uid}")
            coordinator = binding.coordinator
            try:
                value = yield ctx.rpc.call(
                    coordinator, SERVER_SERVICE, "invoke", action.id.path,
                    str(binding.uid), op, tuple(args), ctx.node.outcomes.ref)
            except RpcRemoteError as exc:
                if exc.remote_type == "KeyError":
                    # Coordinator restarted inside the action and lost its
                    # replica; treat like a coordinator failure.
                    binding.break_binding(coordinator)
                    if binding.modified:
                        raise TxnAborted(
                            f"coordinator_lost_dirty:{binding.uid}") from None
                    if not binding.live_hosts:
                        raise TxnAborted(
                            f"all_replicas_gone:{binding.uid}") from None
                    continue
                try:
                    raise_mapped(exc)
                except LockRefused:
                    raise TxnAborted(f"lock_refused:{binding.uid}") from None
                raise
            except RpcError:
                binding.break_binding(coordinator)
                ctx.metrics.counter(
                    "policy.coordinator_cohort.coordinator_failures").increment()
                if binding.modified:
                    # Dirty state died with the coordinator; cohorts hold
                    # only the last committed checkpoint.
                    raise TxnAborted(f"coordinator_lost_dirty:{binding.uid}") from None
                if not binding.live_hosts:
                    raise TxnAborted(f"all_replicas_gone:{binding.uid}") from None
                ctx.metrics.counter(
                    "policy.coordinator_cohort.failovers_masked").increment()
                continue  # retry on the promoted cohort
            if is_write:
                binding.modified = True
            return value

    def on_commit(self, ctx: TxnContext, binding: PolicyBinding,
                  action: AtomicAction) -> None:
        if not binding.modified:
            return
        # Until the checkpoint below, the action's writes exist at the
        # coordinator alone: a cohort's copy is no substitute for them.
        distribution = StateDistributionRecord(
            ctx, binding, sources=[binding.coordinator])
        action.add_record(distribution)
        action.add_record(_CheckpointRecord(ctx, binding, distribution))


class _CheckpointRecord(AbstractRecord):
    """Installs the committed state at the cohorts, from the client.

    The state and version are the ones state distribution took from the
    coordinator's vote and shadowed at the stores, so the client sends
    them itself, in the outcome fan-out (order 500): the cohorts'
    ``install_state`` leaves at the instant of the coordinator's
    ``commit``, after the stores have promoted the same version.
    """

    order = 500

    def __init__(self, ctx: TxnContext, binding: PolicyBinding,
                 distribution: StateDistributionRecord) -> None:
        self._ctx = ctx
        self._binding = binding
        self._distribution = distribution
        self._installs: list[Future] = []

    def prepare(self, action: AtomicAction) -> Generator[Any, Any, Vote]:
        return Vote.OK
        yield  # pragma: no cover

    def begin_commit(self, action: AtomicAction) -> None:
        binding = self._binding
        self._installs = [
            self._ctx.rpc.call(cohort, SERVER_SERVICE, "install_state",
                               str(binding.uid), *self._distribution.new_state)
            for cohort in binding.live_hosts if cohort != binding.coordinator]

    def commit(self, action: AtomicAction) -> Generator[Any, Any, None]:
        accepted = 0
        for install in self._installs:
            try:
                accepted += bool((yield install))
            except RpcError:
                pass  # the cohort will refresh at its next activation
        if accepted:
            self._ctx.metrics.counter(
                "policy.coordinator_cohort.checkpoints").increment(accepted)
