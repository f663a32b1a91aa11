"""RPC services of a store host.

Servers contact store hosts to load object states at activation and to
write new states at commit (paper sections 3.1 and 4.2).  All methods
speak UID strings (the RPC wire form) and byte buffers.

A store host may additionally serve one shard of the group-view
database (:class:`NameShardHost`).  Every name node is such a host --
the paper's single name node is a ring of one -- so "store host" and
"name shard host" are the same machine class booted with one extra
service.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.cluster.janitor import Janitor
from repro.cluster.node import Node
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.net.batch import demux
from repro.sim.futures import Future
from repro.storage.objectstore import ObjectStore
from repro.storage.uid import Uid

STORE_SERVICE = "store"


class GroupCommitLog:
    """Group commit: coalesce co-arriving log forces into one write.

    A committed shadow is durable once the write-ahead log is forced.
    Forcing per commit serialises every commit behind its own simulated
    log write; real databases amortise this by letting commits that
    arrive while a force is pending share the *next* one (one fsync per
    group, not per transaction).  :meth:`force` models exactly that: the
    first caller opens a force window of ``interval``; everyone who
    forces before it closes shares the same future, which resolves when
    the window's single log write completes.
    """

    def __init__(self, node: Node, interval: float) -> None:
        self._node = node
        self.interval = interval
        self._pending: Future | None = None
        self._forces = node.metrics.counter(
            f"store.{node.name}.log_forces")
        self._joins = node.metrics.counter(
            f"store.{node.name}.log_force_joins")

    def force(self) -> Future:
        """The future of the log write that makes this commit durable."""
        if self._pending is None:
            pending = Future(label="log.force")
            self._pending = pending
            self._forces.increment()
            self._node.scheduler.schedule(self.interval, self._complete,
                                          pending)
        else:
            self._joins.increment()
        return self._pending

    def _complete(self, pending: Future) -> None:
        if self._pending is pending:
            self._pending = None
        pending.try_resolve(True)


class StoreHost:
    """Thin RPC adapter over :class:`~repro.storage.objectstore.ObjectStore`.

    ``log_force_interval > 0`` arms group commit: ``commit_shadow``
    (and ``commit_shadow_many``) replies only after a shared simulated
    log force, so commits arriving within one interval of each other
    amortise a single log write instead of paying one each.

    The ``*_many`` methods are the commit batcher's server half: one
    RPC carrying many actions' shadow operations (or many activations'
    state loads), answered with one
    per-item outcome each (``("ok", value)`` / ``("err", type,
    message)``) so a single action's failure never aborts its
    batchmates -- the ``batch-demux`` invariant.
    """

    def __init__(self, node: Node, log_force_interval: float = 0.0) -> None:
        if node.object_store is None:
            raise ValueError(f"node {node.name} has no object store")
        self._node = node
        self._store: ObjectStore = node.object_store
        self._log: GroupCommitLog | None = (
            GroupCommitLog(node, log_force_interval)
            if log_force_interval > 0 else None)

    @classmethod
    def install_on(cls, node: Node,
                   log_force_interval: float = 0.0) -> None:
        """Boot hook: register the service on the node (re-run on recovery)."""
        def hook(n: Node) -> None:
            n.rpc.register(STORE_SERVICE,
                           cls(n, log_force_interval=log_force_interval))
        node.add_boot_hook(hook)

    # -- reads ------------------------------------------------------------

    def read(self, uid_text: str) -> tuple[bytes, int]:
        state = self._store.read_committed(Uid.parse(uid_text))
        return state.buffer, state.version

    def version_of(self, uid_text: str) -> int:
        return self._store.version_of(Uid.parse(uid_text))

    # -- two-phase state installation ----------------------------------------

    def write_shadow(self, uid_text: str, buffer: bytes, version: int) -> bool:
        self._store.write_shadow(Uid.parse(uid_text), buffer, version)
        return True

    def commit_shadow(self, uid_text: str) -> Any:
        return self._durable(self._commit_shadow(uid_text))

    def _commit_shadow(self, uid_text: str) -> bool:
        self._store.commit_shadow(Uid.parse(uid_text))
        return True

    def discard_shadow(self, uid_text: str) -> bool:
        self._store.discard_shadow(Uid.parse(uid_text))
        return True

    def _durable(self, value: Any) -> Any:
        """``value``, as a reply that waits for the log force covering it.

        With group commit armed this is a generator reply: the RPC
        agent runs it as a process, so the ACK waits for the (possibly
        shared) log force.
        """
        if self._log is None:
            return value
        return self._forced(value)

    def _forced(self, value: Any) -> Generator[Any, Any, Any]:
        assert self._log is not None
        yield self._log.force()
        return value

    # -- batched commit plane -------------------------------------------------
    #
    # Server half of the CommitBatcher contract: each item is one
    # batched call's argument tuple, each outcome is that item's own
    # verdict from the single-item handler (see ``demux``).

    def read_many(self, items: list[tuple[str]]) -> list[tuple]:
        # A missing uid fails its own slot only: that activation alone
        # moves on to the next ``St`` host.
        return demux(self.read, items)

    def write_shadow_many(
            self, items: list[tuple[str, bytes, int]]) -> list[tuple]:
        return demux(self.write_shadow, items)

    def commit_shadow_many(self, items: list[tuple[str]]) -> Any:
        # One shared force makes the whole batch durable: group commit
        # composes with batching instead of paying per item.
        return self._durable(demux(self._commit_shadow, items))

    def discard_shadow_many(self, items: list[tuple[str]]) -> list[tuple]:
        return demux(self.discard_shadow, items)


class NameShardHost:
    """Boots one shard of the group-view database on a store host.

    The shard's database object is owned by the harness (the paper
    treats the name service as always available); this adapter makes
    the node serve it over RPC and re-registers it on every recovery,
    like any other boot-time service, with a fresh
    :class:`~repro.cluster.janitor.Janitor` over it.
    """

    # The client-facing service name.
    service = SERVICE_NAME

    def __init__(self, node: Node, db: Any) -> None:
        self.node = node
        self.db = db
        self.retired = False
        self.janitor: Janitor | None = None
        self._hook: Any = None

    @classmethod
    def install_on(cls, node: Node, db: Any, *,
                   fence: Callable[[], int]) -> "NameShardHost":
        """Boot hook: serve ``db`` on ``node`` now and after recoveries.

        Two registrations of the same database: :attr:`service` is the
        client-facing name (recovery gating pulls it until resync
        converges) and the sync service is the always-on side door for
        replica-internal traffic.  ``fence`` -- the shared router's
        ``fence_epoch`` -- arms epoch fencing on the *client-facing*
        service only: tagged requests routed by a stale
        ring view are rejected before dispatch.  The sync plane stays
        unfenced on purpose (resync, migration, and repair must reach
        hosts the live ring does not own yet, or no longer owns; their
        installs are version-gated instead).  Because the boot hook
        re-registers with the same fence on every recovery, a crashed
        host can never rejoin accepting fenced traffic unchecked: a
        node crash resets the RPC agent's services *and* fences, and
        this hook re-arms both against the shared router -- whose fence
        epoch is monotonic, never reset to zero by any recovery.

        A conflicting binder's update-intent read parks on the node's
        clock for half its RPC timeout
        (:meth:`~repro.naming.group_view_db.GroupViewDatabase.park_on`).
        """
        host = cls(node, db)
        db.park_on(node.rpc)

        def hook(n: Node) -> None:
            n.rpc.register(host.service, db, fence=fence)
            # The sync side door lives on the replication NIC when the
            # host runs two planes (``sync_rpc`` aliases ``rpc`` when
            # it does not), so resync/migration/repair traffic never
            # queues behind client requests.
            n.sync_rpc.register(SYNC_SERVICE_NAME, db)
            host.janitor = Janitor(n, db, metrics=db.metrics).start()

        host._hook = hook
        node.add_boot_hook(hook)
        return host

    def retire(self) -> None:
        """Stop serving the shard, now and after any future recovery.

        Online resharding drains a host off the ring; once its arcs are
        garbage-collected the naming service has no business answering
        here -- and a later crash/recovery cycle must not resurrect it.
        """
        if self.retired:
            return
        self.retired = True
        if self.janitor is not None:
            self.janitor.stop()
        self.node.rpc.unregister(self.service)
        self.node.sync_rpc.unregister(SYNC_SERVICE_NAME)
        if self._hook in self.node.boot_hooks:
            self.node.boot_hooks.remove(self._hook)
