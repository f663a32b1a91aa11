"""Shard-host recovery: catch up from replica peers before serving.

With ``nameserver_replication > 1`` an entry lives on every host of its
ring arc's preference list.  Writes flow through all *live* replicas,
so a crashed shard host misses every update committed during its
outage; letting it serve again as-is would hand stale ``Sv``/``St``
views and use counters to clients.  :class:`ShardResyncManager` is the
recovery protocol -- the naming-database analogue of
:class:`~repro.cluster.recovery.RecoveryManager`'s refresh+Include
dance for object stores:

1. **Gate.**  On recovery the manager unregisters the shard's RPC
   service (the boot hook runs right after
   :class:`~repro.cluster.store_host.NameShardHost` re-registered it),
   so clients' reads and writes fail over around this host exactly as
   they did during the outage.
2. **Reset.**  Locks and undo logs are volatile: any action that was
   in flight at the crash was decided -- or aborted -- by the surviving
   replicas, so the local database aborts every in-flight path and
   drops every lock (``reset_volatile``).  This also terminates the
   prepared-but-undecided state of a 2PC whose coordinator could no
   longer reach us for phase 2.
3. **Copy.**  For every UID whose preference list contains this host
   (the universe is the union of the local entries and every
   reachable peer's ``list_uids``), hand the shared replica engine
   (:meth:`~repro.naming.replica_io.ReplicaIO.converge`) the peers as
   sources and the local database as the one target: it reads each
   fresher peer's committed snapshots -- taken under server-local
   probe locks, never a half-applied write -- installs them locally,
   and breaks equal-version ties by vector clock.  Entries locked by
   live actions are retried next round, like the cleanup daemon does.
4. **Converge, then rejoin.**  Passes repeat until one applies no
   changes (writes committed mid-resync land on the peers we copy
   from), then the service is re-registered and the host serves again.

The manager also runs a low-frequency **anti-entropy sweep** while the
host is serving: the same copy pass (each local install try-locks the
entry, so one a live action holds locks on is skipped until the next
sweep).  Crash-induced staleness is already repaired at
recovery; the sweep bounds every *other* divergence -- chiefly a
live-but-queued replica whose timed-out write was presume-aborted by
the client -- to one sweep interval.  The sweep is also the standing
garbage collector for arcs this host no longer owns: an install that
was in flight when an online-reshard epoch flip moved an arc away can
land *after* the migration's own GC round, and the next sweep forgets
it (never during a staged transition, when this host may legitimately
hold freshly-copied arcs it does not own under the live ring yet).

Peer traffic -- uid enumeration, version probes, snapshot reads --
flows over the always-on *sync service* rather than the gated client
service, so any set of simultaneously-recovering hosts can still copy
from each other instead of deadlocking on one another's gates.

The protocol is per-host and unsynchronised: any subset of shard hosts
can crash and recover in any order, as long as each arc keeps one live
replica -- the same availability contract the paper gives replicated
application objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.naming.group_view_db import (
    SERVICE_NAME,
    SYNC_SERVICE_NAME,
    GroupViewDatabase,
)
from repro.naming.replica_io import ReplicaIO
from repro.naming.shard_router import ShardRouter
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle (cluster -> naming)
    from repro.cluster.node import Node


class ShardResyncManager:
    """Gates a recovered shard host out of the ring until caught up."""

    def __init__(self, node: "Node", db: GroupViewDatabase, router: ShardRouter,
                 replication: int, service: str = SERVICE_NAME,
                 sync_service: str = SYNC_SERVICE_NAME,
                 retry_interval: float = 0.25, max_rounds: int = 200,
                 sweep_interval: float | None = 10.0,
                 fence: "Callable[[], int] | None" = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if replication < 2:
            raise ValueError("shard resync needs replication >= 2 "
                             "(a lone replica has no peer to copy from)")
        self.node = node
        self.db = db
        self.router = router
        self.replication = replication
        self.service = service
        self.sync_service = sync_service
        self.retry_interval = retry_interval
        self.max_rounds = max_rounds
        self.sweep_interval = sweep_interval
        # The epoch fence to re-arm when the converged host re-enters
        # the serving path.  Gating unregisters the client service (and
        # with it the fence); re-registering without one would let a
        # recovered host accept stale-ring traffic unchecked -- the
        # "reset to epoch 0" hole the fencing design must not have.
        self.fence = fence
        self.metrics = metrics or MetricsRegistry()
        self.resyncs_completed = 0
        self.resyncs_forced = 0  # rejoined at max_rounds without converging
        self.entries_refreshed = 0
        self.last_resync_at: float | None = None
        self.retired = False  # drained off the ring: never serve again
        # The shared replica engine: peer probes, snapshot reads, and
        # installs all flow through it (sync plane only -- resync
        # traffic must reach gated peers, so it is unfenced).
        self.io = ReplicaIO(node.rpc, router, replication,
                            service=service, sync_service=sync_service,
                            sync_rpc=node.sync_rpc,
                            sync_suffix=node.sync_suffix,
                            metrics=self.metrics)
        self._install_hook()

    @property
    def serving(self) -> bool:
        """Whether this host currently answers naming RPCs."""
        return (not self.node.crashed
                and self.node.rpc.has_service(self.service))

    def retire(self) -> None:
        """Drained off the ring: stop sweeping and never serve again.

        Standing sweep processes exit at their next tick and future
        recoveries only reset volatile state -- the drained host's
        database keeps its (garbage-collected) contents but re-enters
        no serving path.
        """
        self.retired = True

    def _install_hook(self) -> None:
        def sweep_hook(node: "Node") -> None:
            if self.sweep_interval is not None and not self.retired:
                node.spawn(self._sweep(), name="shard-anti-entropy")

        self.node.add_boot_hook(sweep_hook, run_now=True)

        def recovery_hook(node: "Node") -> None:
            # Runs after NameShardHost's hook re-registered the service:
            # pull it straight back out so no client read can slip in
            # between the node coming up and the resync starting.
            node.rpc.unregister(self.service)
            self.db.reset_volatile()
            if not self.retired:
                node.spawn(self.run(), name="shard-resync")

        # ``run_now=False``: never fires at initial boot (nothing was
        # missed yet), fires on every recovery.
        self.node.add_boot_hook(recovery_hook, run_now=False)

    # -- the protocol -------------------------------------------------------

    def run(self) -> Generator[Any, Any, None]:
        """Copy this host's arcs from replica peers, then serve again."""
        converged = False
        for _ in range(self.max_rounds):
            if self.retired:
                return  # drained mid-resync: stay out of the serving path
            changed = yield from self._sync_pass()
            if changed is None:
                yield Timeout(self.retry_interval)
                continue
            if not changed:
                converged = True
                break
            # A pass that applied changes re-runs to confirm convergence
            # (writes committed mid-pass land on the peers we copy from).
        if self.retired:
            return
        self.node.rpc.register(self.service, self.db, fence=self.fence)
        self.last_resync_at = self.node.scheduler.now
        if converged:
            self.resyncs_completed += 1
            self.metrics.counter(
                f"resync.{self.node.name}.completed").increment()
        else:
            # Availability over freshness after max_rounds: serve, but
            # record the forced rejoin loudly -- resyncs_completed only
            # ever counts converged passes, so monitors and benchmarks
            # cannot mistake a stale rejoin for a caught-up one.
            self.resyncs_forced += 1
            self.metrics.counter(f"resync.{self.node.name}.forced").increment()

    def _sweep(self) -> Generator[Any, Any, None]:
        """Low-frequency anti-entropy while serving.

        Crash-induced staleness is repaired by :meth:`run` at recovery;
        this bounds every divergence that happens *without* a crash --
        a live replica whose queued write timed out at the caller and
        was presume-aborted -- to one sweep interval.  Installs are
        lock-guarded, so the sweep can never clobber an entry a live
        action is mid-flight on; peers dark or entries busy this time
        wait for the next sweep.
        """
        assert self.sweep_interval is not None
        while True:
            yield Timeout(self.sweep_interval)
            if self.retired:
                return  # drained off the ring: nothing left to patrol
            if not self.serving:
                continue  # a recovery resync owns the database right now
            yield from self._sync_pass()

    def _sync_pass(self) -> Generator[Any, Any, "bool | None"]:
        """One full pass over this host's arcs.

        Returns whether anything changed, or ``None`` when the pass
        could not finish (peers dark, entries busy) and must be retried.
        The pass only decides *what* to level: every uid whose
        preference list contains this host, with its replica peers as
        sources and this host's own database as the one target.  The
        engine does the rest in O(peers) round trips -- an in-sync sweep
        reads no snapshot and takes no peer lock anywhere.  The target
        being local matters twice: the database is read and installed by
        direct call even while its RPC service is gated out, and its
        lock-guarded install still refuses an entry the *colocated*
        cleanup daemon's purge action is mid-flight on.  Peers are never
        written: one that loses a clock tie-break pulls from us on its
        own sweep.
        """
        me = self.node.name
        peers = [n for n in self.router.nodes if n != me]
        local = set(self.db.list_uids())
        universe, answered = yield from self.io.collect_uids(peers)
        universe.update(local)
        if peers and not answered:
            return None  # the whole ring is dark; wait it out

        uids_by_node: dict[str, list[str]] = {}
        for uid_text in sorted(universe):
            replicas = self.router.preference_list(uid_text, self.replication)
            if me not in replicas:
                # Not our arc.  A *local* copy of it is leftover garbage
                # -- e.g. a resync or read-repair install that was in
                # flight when an epoch flip moved the arc away landed
                # after the migration's GC round.  Sweep it out, but
                # never during a staged transition: mid-migration this
                # host may be an incoming owner holding freshly-copied
                # arcs it does not own under the *live* ring yet.
                if uid_text in local and self.router.transition is None:
                    if self.db.forget_entry(uid_text):
                        self.metrics.counter(
                            f"resync.{self.node.name}.gc_leftovers").increment()
                continue
            for node in replicas:
                uids_by_node.setdefault(node, []).append(uid_text)

        # Dark peers simply contribute no probes; their own resync
        # levels them when they return.
        own = {me: self.db}
        probes_by_uid, _dark = yield from self.io.probe_many(
            uids_by_node, local=own)
        entries = {}
        for uid_text in uids_by_node.get(me, ()):
            sources = probes_by_uid[uid_text]
            entries[uid_text] = (sources, {me: sources.pop(me)})
        results = yield from self.io.converge(entries, local=own)

        refreshed = sum(result.installed for result in results.values())
        if refreshed:
            self.entries_refreshed += refreshed
            self.metrics.counter(
                f"resync.{self.node.name}.entries_refreshed"
            ).increment(refreshed)
        if any(result.outcome in ("deferred", "unknown")
               for result in results.values()):
            # "unknown" too: the peers' probes promised an entry their
            # snapshot reads then disclaimed; the next pass re-probes.
            return None
        return any(result.installed or result.repaired
                   for result in results.values())
