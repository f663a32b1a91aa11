"""Client-side transaction runtime.

A :class:`ClientRuntime` lives on a client node and runs application
transactions as simulation processes.  The application supplies a
generator ``work(txn)`` using the :class:`Txn` facade::

    def work(txn):
        balance = yield from txn.invoke(account_uid, "get_balance")
        yield from txn.invoke(account_uid, "deposit", 10)

    result = client.transaction(work)

``Txn`` handles, per the paper's model:

- **binding on first touch** (section 3.1: bindings are created during
  the action as invocations are made) via the configured binding scheme
  and replication policy;
- **invocation routing** through the policy (RPC, group multicast, or
  coordinator);
- **commit processing**: modified objects get state-distribution
  records, every bound server host becomes a 2PC participant, and the
  naming database participant commits/aborts with the action;
- **unbinding** per the scheme (the figure-7 scheme decrements use
  lists *after* the action; figure 8 does it within the action's
  dynamic extent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.actions.action import ActionStatus, AtomicAction, abort_on_failure
from repro.actions.errors import LockRefused
from repro.cluster.errors import TxnAborted
from repro.cluster.group_invoke import GroupInvoker
from repro.cluster.node import Node
from repro.core.objects import ObjectClassRegistry
from repro.naming.binding import (
    BindFailed,
    BindingScheme,
    NestedTopLevelBinding,
    StEmpty,
)
from repro.naming.db_client import GroupViewDbClient
from repro.naming.errors import NamingError
from repro.net.errors import RpcError
from repro.replication.commit import ServerParticipantRecord
from repro.replication.policy import PolicyBinding, ReplicationPolicy, TxnContext
from repro.sim.process import Process
from repro.storage.uid import Uid

CLIENT_SERVICE = "client"


class _ClientService:
    """Answers liveness probes from the cleanup daemons.

    ``epoch`` is the node's boot incarnation: a server janitor that
    tracked an action from epoch N must treat the client as dead once
    it answers with epoch N+1 -- the action's client-side state died in
    the crash even though the node is reachable again.
    """

    def __init__(self, node: Node) -> None:
        self._node = node

    def ping(self) -> str:
        return "pong"

    def epoch(self) -> int:
        return self._node.recover_count


@dataclass
class TxnResult:
    """Outcome of one transaction run."""

    committed: bool
    reason: str | None
    value: Any
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class Txn:
    """The per-transaction facade handed to application code."""

    def __init__(self, runtime: "ClientRuntime", ctx: TxnContext,
                 action: AtomicAction, read_only: bool = False) -> None:
        self._runtime = runtime
        self._ctx = ctx
        self.action = action
        self.read_only = read_only
        self.bindings: dict[Uid, PolicyBinding] = {}
        self._participants: set[str] = set()

    # -- the application API ------------------------------------------------

    def invoke(self, uid: Uid, op: str, *args: Any) -> Generator[Any, Any, Any]:
        """Invoke ``op`` on the persistent object ``uid``."""
        binding = yield from self._ensure_bound(uid)
        mode = self._runtime.mode_of(uid, op)
        is_write = mode is not None and mode.value != "read"
        if is_write and self.read_only:
            raise TxnAborted(f"write_in_readonly_txn:{uid}.{op}")
        value = yield from self._ctx.node_policy.invoke(
            self._ctx, binding, self.action, op, tuple(args), is_write)
        return value

    def abort(self, reason: str = "application") -> None:
        """Application-requested abort."""
        raise TxnAborted(reason)

    # -- binding ---------------------------------------------------------------

    def _ensure_bound(self, uid: Uid) -> Generator[Any, Any, PolicyBinding]:
        binding = self.bindings.get(uid)
        if binding is not None:
            if not binding.live_hosts:
                raise TxnAborted(f"binding_broken:{uid}")
            return binding
        binding = yield from self._ctx.node_policy.bind(
            self._ctx, self.action, uid, read_only=self.read_only)
        self.bindings[uid] = binding
        for host in binding.live_hosts:
            if host not in self._participants:
                self._participants.add(host)
                self.action.add_record(ServerParticipantRecord(
                    self._ctx, host, self.bindings))
        return binding


class ClientRuntime:
    """Runs transactions on one client node."""

    def __init__(
        self,
        node: Node,
        db_node: str,
        scheme: BindingScheme,
        policy: ReplicationPolicy,
        registry: ObjectClassRegistry,
        type_names: dict[Uid, str],
        db_client: Any | None = None,
    ) -> None:
        self.node = node
        self.policy = policy
        self.scheme = scheme
        self.registry = registry
        # Immutable class metadata, shared cluster-wide (a real system
        # would ship this with the application binary).
        self._type_names = type_names
        self.metrics = node.metrics
        # ``db_client`` overrides the default single-node adapter (the
        # sharded deployment passes a ring-routing client instead).
        self._ctx = TxnContext(
            node=node, rpc=node.rpc,
            db=db_client or GroupViewDbClient(node.rpc, db_node),
            scheme=scheme, invoker=GroupInvoker(node),
            registry=registry, metrics=node.metrics,
            node_policy=policy)
        node.add_boot_hook(
            lambda n: n.rpc.register(CLIENT_SERVICE, _ClientService(n)))

    # -- metadata -----------------------------------------------------------

    def mode_of(self, uid: Uid, op: str):
        type_name = self._type_names.get(uid)
        if type_name is None:
            return None
        return self.registry.mode_for(type_name, op)

    # -- running transactions ----------------------------------------------------

    def transaction(self, work: Callable[[Txn], Generator[Any, Any, Any]],
                    read_only: bool = False, name: str = "txn") -> Process:
        """Spawn ``work`` as a transaction process; resolves to TxnResult."""
        return self.node.spawn(self._run(work, read_only), name=name)

    def _run(self, work: Callable[[Txn], Generator[Any, Any, Any]],
             read_only: bool) -> Generator[Any, Any, TxnResult]:
        started = self.node.scheduler.now
        action = AtomicAction(node=self.node.name)
        reason: str | None = None
        value: Any = None
        try:
            txn = Txn(self, self._ctx, action, read_only=read_only)
            try:
                value = yield from work(txn)
            except TxnAborted as exc:
                reason = exc.reason
            except StEmpty as exc:
                reason = f"st_empty:{exc}"
            except BindFailed as exc:
                reason = f"bind_failed:{exc}"
            except LockRefused:
                reason = "lock_refused"
            except NamingError as exc:
                reason = f"naming:{type(exc).__name__}"
            except RpcError as exc:
                reason = f"rpc:{type(exc).__name__}"

            if reason is None:
                if self.scheme_unbinds_within_action:
                    yield from self._unbind_all(txn, within=action)
                for binding in txn.bindings.values():
                    self.policy.on_commit(self._ctx, binding, action)
                status = yield from action.commit()
                committed = status is ActionStatus.COMMITTED
                if not committed:
                    reason = "commit_vetoed"
            else:
                if self.scheme_unbinds_within_action:
                    yield from self._unbind_all(txn, within=action)
                yield from action.abort()
                committed = False
        except BaseException:
            # Abort-on-failure: only the five expected failure kinds
            # reach the commit-or-abort decision above; anything else
            # (a bug in ``work``, a process kill) must still terminate
            # the client action, or its inherited binding locks leak
            # until a cleaner purges this "client" as dead.
            yield from abort_on_failure(action)
            raise

        if not self.scheme_unbinds_within_action:
            yield from self._unbind_all(txn, within=None)

        finished = self.node.scheduler.now
        self._record_outcome(committed, reason, finished - started)
        return TxnResult(committed, reason, value, started, finished)

    @property
    def scheme_unbinds_within_action(self) -> bool:
        return isinstance(self.scheme, NestedTopLevelBinding)

    def _unbind_all(self, txn: Txn,
                    within: AtomicAction | None) -> Generator[Any, Any, None]:
        for uid, binding in txn.bindings.items():
            try:
                yield from self.scheme.unbind(uid, binding.outcome,
                                              within_action=within)
            except (RpcError, NamingError, LockRefused):
                pass  # cleanup daemon repairs what we could not

    def _record_outcome(self, committed: bool, reason: str | None,
                        duration: float) -> None:
        if committed:
            self.metrics.counter("txn.committed").increment()
        else:
            self.metrics.counter("txn.aborted").increment()
            bucket = (reason or "unknown").split(":", 1)[0]
            self.metrics.counter(f"txn.abort.{bucket}").increment()
        self.metrics.histogram("txn.duration").observe(duration)
