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
   reachable peer's ``list_uids``), read the committed entry from the
   first live replica peer *under a real atomic action* -- the read
   locks guarantee a consistent snapshot, never a half-applied write --
   and install it locally.  Entries locked by live actions are retried
   next round, like the cleanup daemon does.
4. **Converge, then rejoin.**  Passes repeat until one applies no
   changes (writes committed mid-resync land on the peers we copy
   from), then the service is re-registered and the host serves again.

The manager also runs a low-frequency **anti-entropy sweep** while the
host is serving: the same copy pass, but each local install first
try-locks the entry (an entry a live action holds locks on is skipped
until the next sweep).  Crash-induced staleness is already repaired at
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
from repro.naming.replica_io import EntryCopy, ReplicaIO
from repro.naming.shard_router import ShardRouter
from repro.net.errors import RpcError
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Timeout
from repro.storage.uid import Uid

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
        # the converge protocol all flow through it (sync plane only --
        # resync traffic must reach gated peers, so it is unfenced).
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
            try:
                changed = yield from self._sync_pass()
            except _Deferred:
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
        lock-guarded (see :meth:`_install`), so the sweep can never
        clobber an entry a live action is mid-flight on.
        """
        assert self.sweep_interval is not None
        while True:
            yield Timeout(self.sweep_interval)
            if self.retired:
                return  # drained off the ring: nothing left to patrol
            if not self.serving:
                continue  # a recovery resync owns the database right now
            try:
                yield from self._sync_pass()
            except _Deferred:
                pass  # peers dark or entries busy; next sweep retries

    def _sync_pass(self) -> Generator[Any, Any, bool]:
        """One full pass over this host's arcs; True if anything changed.

        Coalesced: instead of one version probe per (uid, peer), each
        peer answers a single ``probe_many`` for every uid of the arcs
        it shares with us, and catch-up snapshots come back through one
        ``get_many`` per source -- so an in-sync sweep costs O(peers)
        round trips, not O(entries), and a crashed host copying a whole
        arc back pays per source, not per entry.  Consulting *all*
        probed sources still matters: an equal-version peer may simply
        share our staleness while a later replica holds the fresh copy,
        and the two version halves' maxima may live on different peers
        (the per-half version gate in the install merges them).
        """
        me = self.node.name
        peers = [n for n in self.router.nodes if n != me]
        local = set(self.db.list_uids())
        universe, answered = yield from self.io.collect_uids(peers)
        universe.update(local)
        if peers and not answered:
            raise _Deferred  # the whole ring is dark; wait it out

        changed = False
        deferred = False
        mine: list[str] = []
        shared_by_peer: dict[str, list[str]] = {}
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
            mine.append(uid_text)
            for peer in replicas:
                if peer != me:
                    shared_by_peer.setdefault(peer, []).append(uid_text)

        # One lock-free batched probe per peer (in the common
        # already-in-sync case no snapshot is read and no peer lock is
        # taken anywhere in the pass).  Dark peers simply contribute no
        # probes; their own resync levels them when they return.
        probes_by_uid, _dark = yield from self.io.probe_many_grouped(
            shared_by_peer)
        for uid_text in mine:
            probes_by_uid.setdefault(uid_text, {})

        # Decide catch-up per uid, then fetch per *source*: every uid a
        # source is strictly ahead of us on (either half) rides its one
        # batched snapshot read.
        local_versions: dict[str, tuple[int, int]] = {}
        behind_by_source: dict[str, list[str]] = {}
        for uid_text in mine:
            probes = probes_by_uid[uid_text]
            if not probes:
                deferred = True  # this arc's peers are all dark
                continue
            uid = Uid.parse(uid_text)
            local_versions[uid_text] = (self.db.server_db.entry_version(uid),
                                        self.db.state_db.entry_version(uid))
            for peer, (sv, st) in probes.items():
                if (sv > local_versions[uid_text][0]
                        or st > local_versions[uid_text][1]):
                    behind_by_source.setdefault(peer, []).append(uid_text)

        for source, uids in behind_by_source.items():
            # An earlier source this pass may already have pulled a uid
            # level with this one; re-check before paying the fetch.
            wanted = [uid_text for uid_text in uids
                      if probes_by_uid[uid_text][source][0]
                      > local_versions[uid_text][0]
                      or probes_by_uid[uid_text][source][1]
                      > local_versions[uid_text][1]]
            copies = yield from self.io.get_many(source, wanted)
            if copies is None:
                deferred = True  # a known-fresher peer went dark
                continue
            for uid_text in wanted:
                copy = copies.get(uid_text)
                if copy == "locked" or copy is None:
                    deferred = True  # busy entry; next round retries
                    continue
                if copy == "unknown":
                    continue  # vanished since the probe (aborted define)
                installed = self._install_local(source, uid_text, copy)
                if installed is None:
                    deferred = True  # a live local action holds it
                    continue
                if installed:
                    changed = True
                    self.entries_refreshed += 1
                    self.metrics.counter(
                        f"resync.{self.node.name}.entries_refreshed"
                    ).increment()
                old = local_versions[uid_text]
                local_versions[uid_text] = (max(old[0], copy.versions[0]),
                                            max(old[1], copy.versions[1]))

        # Vector-clock reconciliation: a peer sitting at *equal*
        # scalars may still hold divergent content -- a partial
        # partition lets each side commit a different write, bumping
        # both replicas' versions identically, and the version-gated
        # install above is blind to it.  Batch-probe the clocks of
        # every level peer; where histories disagree, pull the peer's
        # copy if it wins (dominance, else the arc's owner order) and
        # force-install it with the merged clock.  When *we* win, do
        # nothing: the peer's own sweep runs the same rule and pulls
        # from us -- convergence in two sweeps, no push path needed.
        level_by_peer: dict[str, list[str]] = {}
        for uid_text in mine:
            local_v = local_versions.get(uid_text)
            if local_v is None:
                continue
            for peer, versions in probes_by_uid[uid_text].items():
                if tuple(versions) == tuple(local_v):
                    level_by_peer.setdefault(peer, []).append(uid_text)
        for peer in sorted(level_by_peer):
            uids = level_by_peer[peer]
            try:
                clocks = yield from self.io.sync_client_for(
                    peer).entry_clocks_many(uids)
            except RpcError:
                deferred = True  # the peer went dark; next round retries
                continue
            wanted = []
            for uid_text, peer_clock in zip(uids, clocks):
                peer_clock = dict(peer_clock)
                local_clock = self.db.entry_clock(uid_text)
                if peer_clock != local_clock and self._adopt_peer(
                        uid_text, local_clock, peer_clock, peer):
                    wanted.append(uid_text)
            if not wanted:
                continue
            copies = yield from self.io.get_many(peer, wanted)
            if copies is None:
                deferred = True
                continue
            for uid_text in wanted:
                copy = copies.get(uid_text)
                if copy == "locked" or copy is None:
                    deferred = True  # busy entry; next round retries
                    continue
                if copy == "unknown" or not isinstance(copy, EntryCopy):
                    continue  # vanished since the probe
                merged = dict(self.db.entry_clock(uid_text))
                for writer, count in (copy.vclock or {}).items():
                    if count > merged.get(writer, 0):
                        merged[writer] = count
                installed = self.db.guarded_install_entry(
                    uid_text, copy.hosts, copy.uses, copy.view,
                    copy.versions, vclock=merged, force=True)
                if installed is None:
                    deferred = True  # a live local action holds it
                    continue
                if installed:
                    changed = True
                    self.metrics.counter(
                        "replica_io.divergence_repairs").increment()
                    self.metrics.counter(
                        f"resync.{self.node.name}.divergence_repairs"
                    ).increment()

        # Anything still behind the freshest probe (an install raced a
        # local action, a source went dark mid-fetch) waits for the
        # next round.
        for uid_text, versions in local_versions.items():
            probes = probes_by_uid[uid_text]
            if (versions[0] < max(sv for sv, _ in probes.values())
                    or versions[1] < max(st for _, st in probes.values())):
                deferred = True
                break
        if deferred:
            raise _Deferred
        return changed

    def _install_local(self, _target: str, uid_text: str,
                       copy: EntryCopy) -> bool | None:
        """The engine's install hook: land one snapshot in our database.

        Delegates to the database's lock-guarded install: even while
        the RPC service is out of the serving path, the *colocated*
        cleanup daemon writes to the same database directly, and
        overwriting an entry whose purge action is mid-flight would
        corrupt the action's undo closures.  A refusal means a live
        local action holds the entry; the pass retries it next round.
        The install itself is additionally version-gated, so only a
        strictly fresher peer copy ever lands.
        """
        return self.db.guarded_install_entry(uid_text, copy.hosts, copy.uses,
                                             copy.view, copy.versions,
                                             vclock=copy.vclock)

    def _adopt_peer(self, uid_text: str, local_clock: dict[str, int],
                    peer_clock: dict[str, int], peer: str) -> bool:
        """Whether a peer's equal-version divergent copy wins locally.

        Dominance first (the peer saw every commit we did, and more);
        true concurrency falls back to the arc's deterministic owner
        order, so both sides of a divergence pick the same winner.
        """
        if ReplicaIO._dominates(peer_clock, local_clock):
            return True
        if ReplicaIO._dominates(local_clock, peer_clock):
            return False  # we win; the peer's sweep pulls from us
        for node in self.router.preference_list(uid_text, self.replication):
            if node == peer:
                return True
            if node == self.node.name:
                return False
        return peer < self.node.name  # neither in the arc: stable fallback


class _Deferred(Exception):
    """A pass could not finish; sleep and retry."""
