"""Online resharding: grow, shrink, or rebalance the ring under traffic.

PR 1 sharded the group-view database over a consistent-hash ring and
PR 2 replicated each ring arc, but membership was still fixed at boot.
:class:`ReshardManager` makes the ring *elastic*: it adds or removes
shard hosts from a live system with no restart, no write barrier, and
no stale-served bindings, the way OpenStack Swift's ring-builder plans
membership changes as bounded partition movements drained while both
old and new owners serve.  :meth:`plan_rebalance` generalises the
single-host grow/shrink to a *plan*: several hosts joining and leaving
in one staged transition, one copy pipeline, one atomic flip -- the
arc movement stays bounded because the pipeline copies
:data:`COPY_BATCH` arcs at a time and pauses :data:`COPY_PAUSE` seconds
after each batch that copied anything, regardless of how many hosts
the plan moves.

One membership change is one **migration epoch**:

1. **Stage.**  The proposed ring is computed by cloning the live
   :class:`~repro.naming.shard_router.ShardRouter` and applying the
   change; the arc delta (every UID whose preference list differs) is
   what must move.  A
   :class:`~repro.naming.shard_router.RingTransition` is attached to
   the shared router, which advances the router's *fence epoch*: every
   client's next operation captures a fresh
   :class:`~repro.naming.shard_router.RingView` and writes through the
   *union* of the old and new preference lists (dual ownership) while
   reads stay old-epoch-first.  A write still in flight from a
   pre-stage view is rejected by the shard services' epoch fence at
   dispatch time and retried against the union -- which is why this
   pipeline needs no settle interval: there is no window in which a
   stale-routed write can land on the wrong owners.
2. **Copy.**  Throttled passes walk the moving arcs: the engine
   (:class:`~repro.naming.replica_io.ReplicaIO`) has both sides list
   their entries of the moved partitions with versions, lock-free --
   one ``diff_partitions`` per host and side per pass -- and, in
   batches of :data:`COPY_BATCH` arcs, pushes each behind arc through
   the incoming owner's lock-guarded, version-gated
   ``guarded_install_entry`` -- the very engine
   :class:`~repro.naming.shard_resync.ShardResyncManager` pulls with.
   Once an
   entry is seeded, dual-ownership writes keep it current, so each
   arc needs exactly one *confirmation*: a pass that probes its
   incoming owners (lock-free) at-or-ahead of every reachable source.
   A confirmed arc can never fall behind again and is skipped; an arc
   that needed a copy is confirmed by a later pass, and an arc with
   any unreachable replica holds the epoch open.
3. **Flip.**  The membership change is applied to the live shared
   router and the transition cleared with no intervening simulation
   event -- an atomic epoch flip that also advances the fence, so any
   request still routed by the transition's union view is rejected and
   re-routed.  Every client's next routing decision uses the new ring;
   the incoming owners are guaranteed current by step 2.
4. **GC.**  The outgoing owners still hold the moved arcs' entries;
   the coordinator asks each to ``forget_entry`` (try-locked, so an
   entry still touched by a pre-flip action committing late is
   retried).  Post-flip no read or write routes to them, so the
   garbage was never serveable.

The coordinator is an ordinary node's RPC agent and the process
survives coordinator crashes only in the sense that matters here: a
dark coordinator just defers its passes (they retry), and an aborted
migration clears the transition so the system falls back to the old
ring -- any entries already copied are version-gated garbage a retry
or later epoch reuses or removes.

:class:`ShardAutoscaler` is the optional load-triggered driver: it
samples per-shard naming-operation counters (the PR 1 scoped metrics)
and calls a scale-up hook when the per-shard op rate crosses the high
watermark -- and, when configured with a *low* watermark, drains the
least-loaded host after the rate sits under it for a full cooldown of
consecutive samples.  The two watermarks are kept apart (hysteresis)
so a scale-down can never push the per-shard rate back over the
scale-up threshold: the policy refuses a low watermark above half the
high one, and any scale event restarts the cooldown from zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Sequence

from repro.naming.coherence import COHERENCE_SERVICE_NAME
from repro.naming.errors import NamingError
from repro.naming.group_view_db import SYNC_SERVICE_NAME, diff_request
from repro.naming.replica_io import ReplicaIO, versions_held
from repro.naming.shard_router import RingTransition, ShardRouter
from repro.net.errors import RpcError
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle (cluster -> naming)
    from repro.cluster.node import Node


class ReshardError(NamingError):
    """Base for online-resharding failures."""


class ReshardInProgress(ReshardError):
    """A second membership change was requested mid-migration."""


class ReshardAborted(ReshardError):
    """A migration could not converge and fell back to the old ring."""


# The migration-bandwidth cap: arc copies (and GC forgets) between
# pauses, and the pause.
COPY_BATCH = 8
COPY_PAUSE = 0.02


class ReshardManager:
    """Plans and drains live shard-ring membership changes."""

    def __init__(self, node: "Node", router: ShardRouter, replication: int,
                 service: str = SYNC_SERVICE_NAME,
                 retry_interval: float = 0.25, max_rounds: int = 400,
                 handover_coherence: bool = False,
                 metrics: MetricsRegistry | None = None) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.node = node
        self.router = router
        self.replication = replication
        self.service = service
        self.retry_interval = retry_interval
        self.max_rounds = max_rounds
        self.handover_coherence = handover_coherence
        self.metrics = metrics or MetricsRegistry()
        self.epochs_completed = 0
        self.entries_copied = 0
        self.entries_forgotten = 0
        self.copy_passes = 0
        self.history: list[dict[str, Any]] = []
        self._busy = False
        # The running (or last) epoch's staged diff: the partitions the
        # copy passes, the coherence handover and the GC enumerate.
        self._moved: frozenset[int] = frozenset()
        # The shared replica engine (sync plane): partition listings
        # with versions, snapshot reads, guarded installs.  Unfenced --
        # migration traffic must reach incoming owners the live ring
        # does not own yet.
        self.io = ReplicaIO(node.rpc, router, replication,
                            sync_service=service,
                            sync_rpc=node.sync_rpc,
                            sync_suffix=node.sync_suffix,
                            metrics=self.metrics)

    @property
    def active(self) -> bool:
        """Whether a migration epoch (copy, flip, or GC) is running."""
        return self._busy or self.router.transition is not None

    # -- the public membership changes --------------------------------------

    def validate_plan(self, add: Sequence[str] = (),
                      remove: Sequence[str] = (),
                      weights: "Mapping[str, float] | None" = None,
                      ) -> tuple[list[str], list[str], dict[str, float]]:
        """Check a rebalance plan; returns (add, remove, reweighted).

        ``weights`` assigns per-host weights: for a host in ``add`` its
        boot weight, for a host already on the ring a weight *change*
        (the returned ``reweighted`` dict keeps only the entries that
        actually differ from the live ring).  Raises ``ValueError`` on
        an empty plan (nothing added, removed, or re-weighted), an
        add/remove overlap, an add already on the ring, an unknown
        remove, a non-positive or unplaceable weight, or a plan that
        would leave fewer hosts than the replication factor.  Exposed
        so callers can validate *before* spending anything on the plan
        (the system harness boots new hosts first -- a plan rejected
        after booting would leak orphan shard hosts).
        """
        added = list(dict.fromkeys(add))
        removed = list(dict.fromkeys(remove))
        weights = dict(weights or {})
        for name, weight in weights.items():
            if weight <= 0:
                raise ValueError(
                    f"shard weight must be positive: {name}={weight}")
            if name not in added and name not in self.router.nodes:
                raise ValueError(
                    f"weight for a host neither on the ring nor added: "
                    f"{name}")
            if name in removed:
                raise ValueError(f"cannot re-weight a host being removed: "
                                 f"{name}")
        reweighted = {name: weight for name, weight in weights.items()
                      if name in self.router.nodes
                      and self.router.weight_of(name) != weight}
        if not added and not removed and not reweighted:
            raise ValueError("a rebalance plan must move at least one host "
                             "or change a weight")
        overlap = set(added) & set(removed)
        if overlap:
            raise ValueError(f"hosts both added and removed: "
                             f"{sorted(overlap)}")
        for name in added:
            if name in self.router.nodes:
                raise ValueError(f"shard node already on the ring: {name}")
        for name in removed:
            if name not in self.router.nodes:
                raise ValueError(f"not a shard node: {name}")
        survivors = len(self.router) + len(added) - len(removed)
        if survivors < self.replication:
            raise ValueError(
                f"cannot rebalance below the replication factor: "
                f"{survivors} hosts < replication {self.replication}")
        return added, removed, reweighted

    def plan_rebalance(self, add: Sequence[str] = (),
                       remove: Sequence[str] = (),
                       weights: "Mapping[str, float] | None" = None,
                       ) -> Generator[Any, Any, dict[str, Any]]:
        """Move several hosts (and/or weights) in *one* migration epoch.

        The whole plan is staged as a single transition -- one dual-
        ownership window, one copy pipeline over the staged partition
        diff, one atomic flip -- instead of one epoch per host, so a
        2->4 scale-out pays one migration, not two.  Partition movement
        stays bounded however many hosts move: the pipeline copies
        ``COPY_BATCH`` arcs at a time and pauses ``COPY_PAUSE`` seconds
        after each batch that copied anything, so the migration
        bandwidth cap is independent of the plan's size.  Hosts being
        added must already be booted and serving (empty is fine: a host
        owns nothing until the epoch flips).  The migration slot is
        claimed and the transition staged *synchronously* at this call
        -- two same-instant requests cannot both pass -- so the returned
        generator must be driven to completion.

        A weight-only plan (``weights`` naming live hosts, nothing
        added or removed) runs the very same staged-epoch flow: the
        re-weighted target ring is staged, only the partitions whose
        preference lists changed are copied, and the flip applies the
        new weights to the live router.
        """
        added, removed, reweighted = self.validate_plan(add, remove, weights)
        boot_weights = {name: dict(weights or {}).get(name, 1.0)
                        for name in added}
        target = self.router.clone()
        for name in added:
            target.add_node(name, weight=boot_weights[name])
        for name in removed:
            target.remove_node(name)
        for name, weight in reweighted.items():
            target.set_weight(name, weight)
        return self._migrate(target, added=added, removed=removed,
                             boot_weights=boot_weights, reweighted=reweighted)

    # -- the migration epoch -------------------------------------------------

    def _migrate(self, target: ShardRouter, added: list[str],
                 removed: list[str],
                 boot_weights: dict[str, float] | None = None,
                 reweighted: dict[str, float] | None = None,
                 ) -> Generator[Any, Any, dict[str, Any]]:
        # Synchronous prologue: claim the slot and stage dual ownership
        # before the migration process first runs.
        if self.active:
            raise ReshardInProgress(
                "a ring membership change is already migrating")
        boot_weights = boot_weights or {}
        reweighted = reweighted or {}
        # The staged diff: exactly the partitions whose preference list
        # differs between the live and target rings.  Copy passes skip
        # every entry outside it, and the record carries both the exact
        # moved count and the a-priori bound so observers can check the
        # bounded-movement promise.
        moved = frozenset(self.router.moved_partitions(target,
                                                       self.replication))
        record: dict[str, Any] = {
            "added": list(added), "removed": list(removed),
            "reweighted": dict(reweighted),
            "epoch": target.epoch,
            "partitions_total": target.partition_count,
            "partitions_moved": len(moved),
            "movement_bound": self.router.movement_bound(target,
                                                         self.replication),
            "started_at": self.node.scheduler.now,
            "flipped_at": None, "done_at": None,
            "entries_copied": 0, "entries_forgotten": 0,
        }
        self.history.append(record)
        self._busy = True
        self._moved = moved
        # Staging advances the router's fence epoch: from this instant
        # the shard services reject any request still routed by a
        # pre-stage view, so no settle interval is needed before the
        # copy passes may trust the sources' version probes.
        self.router.transition = RingTransition(
            target, epoch=target.epoch,
            added=tuple(added), removed=tuple(removed),
            reweighted=tuple(sorted(reweighted.items())),
            partitions=moved)
        return self._drain_epoch(target, added, removed, boot_weights,
                                 reweighted, record)

    def _drain_epoch(self, target: ShardRouter, added: list[str],
                     removed: list[str], boot_weights: dict[str, float],
                     reweighted: dict[str, float],
                     record: dict[str, Any]) -> Generator[Any, Any,
                                                          dict[str, Any]]:
        try:
            converged = yield from self._converge(target, record)
            if not converged:
                raise ReshardAborted(
                    f"migration to epoch {target.epoch} did not converge "
                    f"within {self.max_rounds} passes")
        except BaseException:
            # Fall back to the old ring: dual ownership simply ends, and
            # anything already copied is version-gated garbage a retry
            # can reuse.  (Also runs when the coordinator is killed.)
            self.router.transition = None
            self._busy = False
            raise
        # FLIP -- atomic: membership mutation plus transition clear with
        # no intervening yield, so no client ever routes by a half-state
        # (and the fence advances, so a request still in flight from the
        # union view is rejected and re-routed, never half-applied).
        old_ring = self.router.clone()
        for name in added:
            self.router.add_node(name, weight=boot_weights.get(name, 1.0))
        for name in removed:
            self.router.remove_node(name)
        for name, weight in reweighted.items():
            self.router.set_weight(name, weight)
        self.router.transition = None
        record["flipped_at"] = self.node.scheduler.now
        self.metrics.counter("reshard.flips").increment()
        try:
            if self.handover_coherence:
                yield from self._handover_coherence(old_ring, record)
            yield from self._gc(old_ring, record)
        finally:
            self._busy = False
        record["done_at"] = self.node.scheduler.now
        self.epochs_completed += 1
        self.metrics.counter("reshard.epochs_completed").increment()
        return record

    def _converge(self, target: ShardRouter,
                  record: dict[str, Any]) -> Generator[Any, Any, bool]:
        """Copy passes until every moving arc has confirmed convergence.

        An arc is *done* once a pass probes its movers at-or-ahead of
        every reachable source: a seeded mover rides dual-ownership
        writes from then on, so it can never fall behind again and
        later passes skip it.  An arc that needed a copy is not done
        until a subsequent pass re-probes it clean -- its own
        confirmation round.  Under live traffic this converges in a
        handful of passes: probe skew on a hot entry defers only that
        entry, not the whole epoch.
        """
        done: set[str] = set()
        for _ in range(self.max_rounds):
            try:
                converged = yield from self._copy_pass(target, record, done)
            except _Deferred:
                self._unconfirm_dirty(done)
                yield Timeout(self.retry_interval)
                continue
            if self._unconfirm_dirty(done):
                continue  # a write skipped a replica: re-confirm its arc
            if converged:
                # No yield separates this return from the flip, and
                # dirty marks are recorded synchronously by writers, so
                # no skipped write can slip between drain and flip.
                return True
        return False

    def _unconfirm_dirty(self, done: set[str]) -> bool:
        """Drain the transition's dirty UIDs out of the confirmed set.

        A confirmed arc stays current only while its incoming owners
        receive every dual-ownership write; a write that could not
        reach a replica marks its UID dirty, and the arc must be
        re-probed (and, if need be, re-copied) before the epoch flips.
        """
        transition = self.router.transition
        if transition is None or not transition.dirty:
            return False
        dirty, transition.dirty = transition.dirty, set()
        done.difference_update(dirty)
        self.metrics.counter("reshard.arcs_unconfirmed").increment(len(dirty))
        return True

    def _copy_pass(self, target: ShardRouter, record: dict[str, Any],
                   done: set[str]) -> Generator[Any, Any, bool]:
        """One pass over the moved partitions; True once all are done."""
        self.copy_passes += 1
        live = self.router
        # partition -> (current owners, incoming owners) of every moved
        # partition whose owners change.  (Every key in a partition
        # shares one preference list, so the staged diff is exhaustive.)
        arcs: dict[int, tuple[list[str], list[str]]] = {}
        for partition in sorted(self._moved):
            old_plist = live.partition_preference(partition, self.replication)
            movers = [h for h in target.partition_preference(
                partition, self.replication) if h not in old_plist]
            if movers:  # else owners unchanged (an ordering-only change)
                arcs[partition] = (old_plist, movers)
        # Lock-free listings with versions on both sides, one round
        # trip per host and side for the whole pass: the common case --
        # seeded movers tracking dual-ownership writes -- is detected
        # without taking a single lock or snapshot, so a converging pass
        # never contends with live traffic.  Owners first.  A write that
        # commits between the two listings reached the movers too
        # (every dual-ownership write goes to the whole union, in the
        # primary's serial order), so it can only make a mover look
        # level or ahead -- never behind, which on a hot entry would
        # re-copy it pass after pass.  A write that skipped a mover
        # marked the uid dirty, and the dirty drain un-confirms its arc.
        owner_probes, dark = yield from self.io.diff_many(_listing(arcs, 0))
        mover_probes, dark_movers = yield from self.io.diff_many(
            _listing(arcs, 1))
        dark |= dark_movers
        if any(dark.issuperset(owners) for owners, _ in arcs.values()):
            raise _Deferred  # no owner left to say what an arc holds
        pending = False
        deferred = False
        uids = sorted(uid_text for uid_text in owner_probes.keys()
                      | mover_probes.keys() if uid_text not in done)
        for start in range(0, len(uids), COPY_BATCH):
            entries = {}
            for uid_text in uids[start:start + COPY_BATCH]:
                old_plist, movers = arcs[live.partition_of(uid_text)]
                # An unreachable source of a *moving* arc may hold a
                # committed write none of its reachable peers took;
                # flipping without it could orphan that write once the
                # arc leaves the host.  Hold the epoch open (dark
                # movers likewise defer).
                if not dark.isdisjoint((*old_plist, *movers)):
                    deferred = True
                    continue
                entries[uid_text] = (
                    versions_held(owner_probes, uid_text, old_plist),
                    versions_held(mover_probes, uid_text, movers))
            results = yield from self.io.converge(entries)
            copied = 0
            for uid_text, result in results.items():
                copied += result.installed
                if result.outcome in ("clean", "unknown"):
                    # Clean: every incoming owner probed current and
                    # (being seeded) rides every dual-ownership write
                    # from here on -- the arc has confirmed convergence
                    # and stays converged.  Unknown: every source
                    # disclaimed the uid under locks (a define that
                    # aborted after enumeration) -- nothing to move.
                    done.add(uid_text)
                elif result.outcome == "deferred":
                    deferred = True
                else:
                    # "copied"/"settled" arcs stay pending until a later
                    # pass re-probes them clean -- their confirmation
                    # round.
                    pending = True
            if copied:
                self.entries_copied += copied
                record["entries_copied"] += copied
                self.metrics.counter(
                    "reshard.entries_copied").increment(copied)
                yield Timeout(COPY_PAUSE)
        if deferred:
            raise _Deferred
        return not pending

    def _handover_coherence(self, old_ring: ShardRouter,
                            record: dict[str, Any],
                            ) -> Generator[Any, Any, None]:
        """Move lessee registries to the entries' new owners (post-flip).

        The coherence plane's registry and hot-detector state are soft
        (TTL-bounded, rebuilt by re-registration), but dropping them at
        every flip would reset each moved hot entry to pull mode and
        cost its whole lessee cohort a refetch stampede.  So right
        after the flip -- before GC erases the outgoing owners'
        entries -- the coordinator copies the state host-to-host over
        the sync plane: one export from each moved uid's outgoing
        primary, one install on its incoming one, batched per host
        pair.  Best effort by design: a dark host on either side just
        means the TTLs and re-registrations resolve it the slow way,
        which the staleness argument already covers (every pre-flip
        cache entry died at the fence anyway; clients re-register on
        their next read of a push-mode entry).
        """
        moves: dict[tuple[str, str], list[int]] = {}
        for partition in sorted(self._moved):
            old_primary = old_ring.partition_owner(partition)
            new_primary = self.router.partition_owner(partition)
            if old_primary != new_primary:
                moves.setdefault((old_primary, new_primary),
                                 []).append(partition)
        for (source, target), partitions in sorted(moves.items()):
            held, _dark = yield from self.io.diff_many(
                {source: diff_request(partitions)})
            if not held:
                continue  # dark, or nothing of the moved arcs there
            try:
                payload = yield self.io.sync_rpc.call(
                    self.io.sync_target(source), COHERENCE_SERVICE_NAME,
                    "export_coherence", sorted(held))
                if payload is None:
                    continue
                yield self.io.sync_rpc.call(
                    self.io.sync_target(target), COHERENCE_SERVICE_NAME,
                    "install_coherence", payload)
            except RpcError:
                continue
            self.metrics.counter("reshard.coherence_handovers").increment()
            record["coherence_handovers"] = (
                record.get("coherence_handovers", 0) + 1)

    def _gc(self, old_ring: ShardRouter,
            record: dict[str, Any]) -> Generator[Any, Any, None]:
        """Remove moved arcs from their outgoing owners (post-flip)."""
        outgoing: dict[str, list[int]] = {}
        for partition in sorted(self._moved):
            keep = self.router.partition_preference(partition,
                                                    self.replication)
            for host in old_ring.partition_preference(partition,
                                                      self.replication):
                if host not in keep:
                    outgoing.setdefault(host, []).append(partition)
        requests = {host: diff_request(partitions)
                    for host, partitions in outgoing.items()}
        for _ in range(self.max_rounds):
            held, dark = yield from self.io.diff_many(requests)
            deferred = bool(dark)  # a dark host may hold garbage; retry
            forgotten_since_pause = 0
            for uid_text in sorted(held):
                for host in held[uid_text]:
                    try:
                        removed = yield self.io.sync_rpc.call(
                            self.io.sync_target(host), self.service,
                            "forget_entry", uid_text)
                    except RpcError:
                        deferred = True
                        continue
                    if removed is None:
                        deferred = True  # pre-flip action still live
                    elif removed:
                        self.entries_forgotten += 1
                        record["entries_forgotten"] += 1
                        self.metrics.counter(
                            "reshard.entries_forgotten").increment()
                        forgotten_since_pause += 1
                        if forgotten_since_pause >= COPY_BATCH:
                            forgotten_since_pause = 0
                            yield Timeout(COPY_PAUSE)
            if not deferred:
                return
            yield Timeout(self.retry_interval)
        # Leftovers on a host that stayed dark through every round are
        # harmless: nothing routes to them, and the version gate keeps a
        # later epoch from ever serving them stale.


class ShardAutoscaler:
    """Optional load-triggered ring growth -- and, optionally, shrink.

    Samples cumulative per-shard naming-operation counts (the PR 1
    ``shard.<host>.*`` scoped metrics, via the ``sample`` hook) every
    ``interval`` and calls ``scale_up`` when the per-shard op *rate*
    exceeds ``ops_per_shard`` -- then waits out whatever waitable
    ``scale_up`` returns, so an in-flight migration is its own
    cooldown.  ``busy`` (typically the ReshardManager's ``active``)
    suppresses triggering mid-migration.

    The scale-**down** policy is symmetric but deliberately slower: a
    single quiet sample proves nothing, so a drain fires only after
    ``down_after`` *consecutive* samples (a full cooldown) under the
    ``low_ops_per_shard`` watermark, and only above ``min_shards``.
    ``scale_down`` receives the least-loaded shard host of the last
    sample -- the cheapest arc set to move.  Hysteresis keeps the two
    policies from fighting: the low watermark must sit at or below
    half the high one (so the post-drain rate, at most doubled, still
    clears the scale-up threshold with replication-factor headroom),
    any scale event in either direction restarts the quiet streak, and
    a sample above the low watermark resets it.

    **The p95 trigger.**  Op-rate scaling is blind to gray failure: a
    degraded shard host accepts every request -- the rate never moves
    -- while client-observed latency explodes.  ``latency_sample``
    (typically the ``naming.get_server_latency`` histogram's growing
    value list) arms a second trigger: each tick takes the p95 of the
    *new* observations since the last tick and scales up when it
    exceeds ``p95_up``.  The same hysteresis contract binds it:
    ``p95_down`` must sit at or below half of ``p95_up``, and a drain
    additionally requires the window's p95 under ``p95_down`` -- a
    ring that is quiet but slow must not shrink.
    """

    def __init__(self, scheduler: Any,
                 sample: Callable[[], dict[str, float]],
                 scale_up: Callable[[], Any],
                 interval: float = 5.0, ops_per_shard: float = 200.0,
                 max_shards: int = 8,
                 scale_down: Callable[[str], Any] | None = None,
                 low_ops_per_shard: float | None = None,
                 min_shards: int = 2, down_after: int = 3,
                 busy: Callable[[], bool] | None = None,
                 latency_sample: Callable[[], list[float]] | None = None,
                 p95_up: float | None = None,
                 p95_down: float | None = None) -> None:
        if interval <= 0:
            raise ValueError("autoscaler interval must be positive")
        if (low_ops_per_shard is not None
                and low_ops_per_shard > ops_per_shard / 2):
            raise ValueError(
                f"low watermark {low_ops_per_shard} must be <= half the "
                f"scale-up threshold {ops_per_shard} (hysteresis: a drain "
                f"must never push the ring back over the high watermark)")
        if down_after < 1:
            raise ValueError("down_after must be >= 1 sample")
        if p95_up is not None and latency_sample is None:
            raise ValueError("a p95 trigger needs a latency_sample hook")
        if p95_down is not None and p95_up is None:
            raise ValueError("p95_down needs p95_up (no latency trigger "
                             "is armed without it)")
        if (p95_down is not None and p95_up is not None
                and p95_down > p95_up / 2):
            raise ValueError(
                f"p95 low watermark {p95_down} must be <= half the "
                f"scale-up threshold {p95_up} (hysteresis, same contract "
                f"as the op-rate watermarks)")
        self.scheduler = scheduler
        self.sample = sample
        self.scale_up = scale_up
        self.scale_down = scale_down
        self.interval = interval
        self.ops_per_shard = ops_per_shard
        self.low_ops_per_shard = low_ops_per_shard
        self.max_shards = max_shards
        self.min_shards = min_shards
        self.down_after = down_after
        self.busy = busy or (lambda: False)
        self.latency_sample = latency_sample
        self.p95_up = p95_up
        self.p95_down = p95_down
        self.samples_taken = 0
        self.scale_ups_triggered = 0
        self.p95_scale_ups = 0  # scale-ups only the p95 trigger fired
        self.scale_downs_triggered = 0
        self.last_rate_per_shard = 0.0
        self.last_p95 = 0.0  # p95 of the last tick's latency window
        self.quiet_samples = 0  # consecutive samples under the low mark
        self._latency_seen = 0  # observations consumed from the sample
        self._running = False
        self._process: Any = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._process = self.scheduler.spawn(self._run(),
                                             name="shard-autoscaler")

    def stop(self) -> None:
        self._running = False

    def _run(self) -> Generator[Any, Any, None]:
        last = self.sample()
        while self._running:
            yield Timeout(self.interval)
            if not self._running:
                return
            current = self.sample()
            self.samples_taken += 1
            shards = len(current)
            per_shard_rates = {
                name: max(0.0, count - last.get(name, 0.0)) / self.interval
                for name, count in current.items()}
            last = current
            if shards == 0:
                continue
            self.last_rate_per_shard = (sum(per_shard_rates.values())
                                        / shards)
            # The latency window is consumed every tick (even when
            # busy) so each sample's p95 covers exactly one interval.
            self.last_p95 = self._window_p95()
            if self.busy():
                # A migrating ring must not trigger another change, and
                # migration traffic must not count toward a drain.
                self.quiet_samples = 0
                continue
            rate_hot = self.last_rate_per_shard > self.ops_per_shard
            p95_hot = self.p95_up is not None and self.last_p95 > self.p95_up
            if (rate_hot or p95_hot) and shards < self.max_shards:
                self.quiet_samples = 0
                self.scale_ups_triggered += 1
                if p95_hot and not rate_hot:
                    # The gray-failure case: latency exploded while the
                    # op rate never moved -- only the p95 trigger saw it.
                    self.p95_scale_ups += 1
                yield from self._wait_out(self.scale_up)
                last = self.sample()  # don't count migration as load
                self._window_p95()  # nor migration-era latency
                continue
            p95_loud = (self.p95_up is not None and self.p95_down is not None
                        and self.last_p95 > self.p95_down)
            if (self.scale_down is None or self.low_ops_per_shard is None
                    or self.last_rate_per_shard > self.low_ops_per_shard
                    or p95_loud  # quiet but slow: never shrink a slow ring
                    or shards <= self.min_shards):
                self.quiet_samples = 0
                continue
            self.quiet_samples += 1
            if self.quiet_samples < self.down_after:
                continue
            victim = min(per_shard_rates, key=per_shard_rates.get)
            self.quiet_samples = 0  # hysteresis: restart the cooldown
            self.scale_downs_triggered += 1
            yield from self._wait_out(lambda: self.scale_down(victim))
            last = self.sample()  # don't count migration as load
            self._window_p95()  # nor migration-era latency

    def _window_p95(self) -> float:
        """p95 of the latency observations since the previous tick."""
        if self.latency_sample is None:
            return 0.0
        values = self.latency_sample()
        window = values[self._latency_seen:]
        self._latency_seen = len(values)
        if not window:
            return 0.0
        ordered = sorted(window)
        index = (95 * len(ordered) + 99) // 100 - 1  # nearest-rank p95
        return ordered[max(0, index)]

    def _wait_out(self, trigger: Callable[[], Any],
                  ) -> Generator[Any, Any, None]:
        """Fire a scale hook and wait out whatever waitable it returns."""
        try:
            waitable = trigger()
            if waitable is not None:
                yield waitable  # the migration is the cooldown
        except Exception:
            pass  # a failed scale hook must not kill the sampling loop


class _Deferred(Exception):
    """A pass could not finish; sleep and retry."""


def _listing(arcs: Mapping[int, tuple[list[str], list[str]]],
             side: int) -> dict[str, list[int]]:
    """Each host's ``diff_partitions`` argument listing every entry it
    holds of the arcs on one side of the move (0: current owners, 1:
    incoming)."""
    partitions: dict[str, list[int]] = {}
    for partition, hosts in arcs.items():
        for host in hosts[side]:
            partitions.setdefault(host, []).append(partition)
    return {host: diff_request(mine) for host, mine in partitions.items()}
