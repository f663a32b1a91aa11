"""Read-repair for the replicated shard ring.

Resync (crash recovery) and the anti-entropy sweep bound how long a
replica can stay stale, but both leave a *residual window*: a write
that commits between a resync's last convergence probe and the
host's re-registration is missing from the rejoined replica until the
next sweep, and a presume-aborted stray leaves the same gap.  Reads
are where staleness becomes visible, so reads are where it is
repaired.

A **failover read** that steps past a replica disclaiming an entry its
peers hold has *proof* of staleness -- the client reports the UID
immediately (:meth:`ReadRepairer.note_stale`, the one trigger; a
routine read that found its entry carries no such proof and costs the
repairer nothing).

The report enqueues a repair: the UID's replicas list their write
versions (one lock-free ``diff_partitions`` each, the comparison verb
every sync-plane trigger shares) and are handed to the shared
:class:`~repro.naming.replica_io.ReplicaIO` engine as both sources and
targets -- for every replica strictly behind the freshest copy on
either half it reads a committed snapshot from a fresher peer (under
server-local probe locks -- never a torn write, never a lock spanning
the wire) and pushes it through the target's lock-guarded,
version-gated ``guarded_install_entry``.  The same engine resync and
the arc-migration pipeline drive, so repair can only ever move a
replica forward.

Repairs are fire-and-forget background processes: they never add
latency to the triggering read, and per-UID throttling plus an
in-flight guard bound the extra probe traffic.  Triggered UIDs are
coalesced into one drain process that hands the engine *batches*, so a
burst of triggered repairs pays round trips per node, not per UID.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.naming.group_view_db import SYNC_SERVICE_NAME, diff_request
from repro.naming.replica_io import ReplicaIO, versions_held
from repro.naming.shard_router import ShardRouter
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.storage.uid import Uid

# An in-flight repair older than this is presumed killed (its owning
# node crashed mid-repair) and no longer blocks re-triggering.
_INFLIGHT_TIMEOUT = 30.0


class ReadRepairer:
    """Version-probing, lock-guarded replica repair driven by reads."""

    def __init__(self, scheduler: Scheduler, rpc: RpcAgent,
                 router: ShardRouter, replication: int,
                 service: str = SYNC_SERVICE_NAME,
                 spawn: Callable[..., Any] | None = None,
                 min_interval: float = 0.5,
                 sync_suffix: str = "",
                 metrics: MetricsRegistry | None = None) -> None:
        if replication < 2:
            raise ValueError("read-repair needs replication >= 2 "
                             "(a lone replica has no peer to repair from)")
        self.scheduler = scheduler
        self.rpc = rpc
        self.router = router
        self.replication = replication
        self.service = service
        self.min_interval = min_interval
        self.metrics = metrics or MetricsRegistry()
        self.repairs_triggered = 0
        self.entries_repaired = 0
        self._spawn = spawn or (
            lambda body, name="": scheduler.spawn(body, name=name))
        # The shared replica engine (sync plane: probes, snapshot
        # reads, guarded installs).  Unfenced on purpose -- a repair
        # may legitimately touch replicas the live ring no longer (or
        # does not yet) own.
        # ``sync_suffix`` points the probes and installs at the shard
        # hosts' replication NICs when the cluster runs two planes, so
        # repair traffic never queues behind the client requests that
        # triggered it.
        self.io = ReplicaIO(rpc, router, replication, sync_service=service,
                            sync_suffix=sync_suffix,
                            metrics=self.metrics)
        self._last_checked: dict[str, float] = {}
        self._inflight: dict[str, float] = {}
        # Pending UIDs awaiting the drain (insertion-ordered dedupe)
        # and the drain process's liveness guard.
        self._pending: dict[str, None] = {}
        self._draining = False
        self._drain_started = 0.0
        self._drain_generation = 0

    # How many pending UIDs one drain round batches together.
    batch_size = 16

    # -- the trigger (called synchronously from the read path) --------------

    def note_stale(self, uid: Uid | str) -> None:
        """A read proved a replica stale (UnknownObject failover)."""
        uid_text = str(uid)
        now = self.scheduler.now
        started = self._inflight.get(uid_text)
        if started is not None and now - started < _INFLIGHT_TIMEOUT:
            return
        last = self._last_checked.get(uid_text)
        if last is not None and now - last < self.min_interval:
            return
        self._last_checked[uid_text] = now
        self._inflight[uid_text] = now
        self.repairs_triggered += 1
        self.metrics.counter("read_repair.triggered").increment()
        self._pending[uid_text] = None
        if self._draining and now - self._drain_started < _INFLIGHT_TIMEOUT:
            return  # the live drain picks the uid up on its next round
        self._draining = True
        self._drain_started = now
        self._drain_generation += 1
        self._spawn(self._drain(self._drain_generation),
                    name="read-repair-drain")

    # -- the drain process --------------------------------------------------

    def _drain(self, generation: int) -> Generator[Any, Any, None]:
        """Drain pending repairs in batches until the queue runs dry.

        One process per burst: triggers arriving while a drain runs
        join its queue instead of spawning their own probes, and each
        round coalesces its batch's probe traffic per replica node.
        A drain presumed dead (its owner crashed mid-probe, or dark
        replicas burned it past the in-flight timeout) may be
        superseded by a newer one; only the newest generation may
        clear the liveness flag, so a presumed-dead drain limping home
        late cannot open the door to a third concurrent drain.
        """
        try:
            while self._pending:
                if generation == self._drain_generation:
                    # Heartbeat: a drain making progress is alive, even
                    # when dark replicas stretch a round past the
                    # in-flight timeout -- only a genuinely wedged
                    # drain (no round completing) may be superseded.
                    self._drain_started = self.scheduler.now
                batch = list(self._pending)[:self.batch_size]
                for uid_text in batch:
                    self._pending.pop(uid_text, None)
                # Snapshot the in-flight markers this batch owns: a
                # superseded drain limping home late must not clear a
                # marker a successor's fresher trigger has re-armed,
                # or the in-flight throttle is void mid-supersession.
                owned = {uid_text: self._inflight.get(uid_text)
                         for uid_text in batch}
                try:
                    yield from self._repair_batch(batch)
                finally:
                    for uid_text in batch:
                        if self._inflight.get(uid_text) == owned[uid_text]:
                            self._inflight.pop(uid_text, None)
        finally:
            if generation == self._drain_generation:
                self._draining = False

    def _repair_batch(self, uids: list[str]) -> Generator[Any, Any, None]:
        # Every replica of the captured view's write set is both a
        # potential source and a potential target: the engine copies
        # from every peer strictly ahead of a laggard on either half
        # (not just the single "best" peer -- the two halves' maxima
        # may live on different replicas).  Crashed or gated-out
        # replicas simply don't answer the probe: resync owns those;
        # repair levels the ones serving.  A busy or vanished entry
        # defers; the next triggering read re-enqueues the repair.
        # One ``diff_partitions`` per replica, naming the batch's
        # partitions and sending no digests, lists everything each
        # replica holds there; a replica that lists none of an entry
        # holds nothing of it.
        view = self.router.view()
        partitions: dict[str, list[int]] = {}
        for uid_text in uids:
            partition = self.router.partition_of(uid_text)
            for node in view.write_set(uid_text, self.replication):
                partitions.setdefault(node, []).append(partition)
        listed, dark = yield from self.io.diff_many(
            {node: diff_request(mine) for node, mine in partitions.items()})
        entries = {}
        for uid_text in uids:
            answered = [node for node in
                        view.write_set(uid_text, self.replication)
                        if node not in dark]
            if len(answered) > 1:
                probes = versions_held(listed, uid_text, answered)
                entries[uid_text] = (probes, probes)
        results = yield from self.io.converge(entries)
        copied = sum(result.installed for result in results.values())
        if copied:
            self.entries_repaired += copied
            self.metrics.counter(
                "read_repair.entries_repaired").increment(copied)
