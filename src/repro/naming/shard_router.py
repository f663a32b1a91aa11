"""Weighted consistent-hash routing of group-view entries to store hosts.

The paper implements the group-view database "as a single Arjuna
object" on one node; every ``GetServer``/``Increment``/``Decrement``
from every client funnels through it.  :class:`ShardRouter` removes
that ceiling the way OpenStack Swift's ring does, with both of Swift's
ring ingredients:

- **weighted virtual nodes** -- each store host claims
  ``round(weight * replicas)`` points on a 2^32 hash ring, so a host
  with weight 2.0 owns about twice the keyspace of a weight-1.0 host
  (heterogeneous hardware without special cases);
- **fixed partitions** -- the keyspace is pre-split into
  ``2**partition_power`` equal arcs ("partitions"); a key belongs to
  the partition selected by the top ``partition_power`` bits of its
  hash, and a partition belongs to the host owning the first virtual
  node clockwise of the partition's start point.  Every routing
  question -- primary, preference list, spread -- resolves key ->
  partition -> distinct-host walk, so placement, migration, and
  accounting all speak the same finite unit.

Properties the naming layer relies on:

- **determinism** -- the mapping is a pure function of the host names,
  weights, replica count, and partition power, so every client, shard
  host, and recovery daemon computes the same placement without
  coordination (hashes come from :func:`hashlib.md5`, not Python's
  salted ``hash``); two virtual nodes colliding on the same ring point
  are ordered by owner name, so ownership never depends on insertion
  order;
- **balance** -- with enough virtual nodes per host the partitions are
  split near-evenly in proportion to weight, so binding traffic
  spreads across shards;
- **stability** -- membership and weight changes move a *bounded*
  number of partitions.  A weight change only adds or removes the
  host's highest-index virtual nodes (existing points never move), so
  a partition's preference list changes only if one of the delta
  points landed inside its walk; :meth:`ShardRouter.moved_partitions`
  computes the exact moved set and :meth:`ShardRouter.movement_bound`
  a deterministic a-priori cap on its size.

:meth:`ShardRouter.preference_list` extends partition lookup to
*replication*: the partition's owner plus its n-1 distinct successor
hosts clockwise.  Replicating every entry across its preference list is
what lets the naming database survive shard-host crashes -- the same
trick the paper plays with application objects and their ``St`` sets.

**Placement.**  Hashing spreads *hash space*, not entries: with a few
dozen keys and 2^8 partitions, which host a key hashes to is luck, and
the busiest name node sets the run's pace.  So an entry is *placed*
when it is defined (:meth:`ShardRouter.place`): greedy least-loaded
allocation at insert time (Azar, Broder, Karlin & Upfal, "Balanced
Allocations", STOC 1994), with every distinct replica set on the ring
as a choice.  The primary is the host with the fewest entries as
primary per unit of weight, the other ``n - 1`` the hosts with the
fewest entries as a replica; the key then takes the nearest partition
clockwise of its hash partition whose preference list is exactly that
set.  A key that left its hash partition is recorded in an append-only
exception table, which :meth:`ShardRouter.partition_of` consults first
and every clone shares -- the table is ring state, as Swift's explicit
partition -> device table is part of its ring file.  A key's partition
never changes after it is defined; partitions move between hosts
exactly as before, so migration, fencing, resync and every audit that
asks ``partition_of`` / ``preference_list`` need not know placement
exists.

**Online resharding** (see :mod:`repro.naming.reshard`) grows, shrinks,
or re-weights a *live* ring.  The change is first staged as a
:class:`RingTransition` hanging off the shared router: the live ring
keeps serving as the *old* epoch while ``transition.target`` holds the
proposed ring, and every client writes through the union of the two
preference lists (:meth:`ShardRouter.union_preference_list`) so no
committed update can miss the incoming owners.  ``transition.partitions``
carries the staged diff -- the exact set of moved partitions -- so the
migration only copies entries whose partition actually moved.  Once
those are copied, the change is applied to the shared router
*atomically* (membership mutation plus transition clear, with no
intervening simulation event).  ``epoch`` counts routing changes so
observers can tell rings apart.

**Epoch fencing** turns agreement on the ring from a hope into a
checked invariant.  Every routing decision a client makes is captured
as a :class:`RingView` -- an immutable snapshot of the membership, the
staged transition (if any), and the *fence epoch*, a monotonic token
(:attr:`ShardRouter.fence_epoch`) that advances on every observable
routing change: staging a transition, flipping it, aborting it, or any
direct membership or weight mutation.  Clients tag each RPC with their
view's token; shard services registered with the fence reject a
mismatched tag with :class:`~repro.net.errors.StaleRingEpoch` *at
dispatch time* (after any service-queue delay), so a request routed by
a pre-change view can never execute against post-change ownership.
That check is what lets the reshard pipeline drop its settle interval:
a write computed before a transition staged either executed before the
staging or is fenced and retried against the union view -- there is no
window in between.  A recovered shard host re-arms the fence when its
boot hook re-registers the service against the same shared router, so
it can never come back accepting fenced traffic at a reset epoch.

Per-entry lock semantics are untouched: each replica shard's
:class:`~repro.naming.group_view_db.GroupViewDatabase` keeps the
paper's per-entry concurrency control.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Mapping


DEFAULT_RING_REPLICAS = 64

# 2**DEFAULT_PARTITION_POWER fixed partitions.  Swift's tradeoff: more
# partitions means finer-grained (smoother) rebalancing but a bigger
# moved-set computation per staged change; fewer means coarser moves.
# 256 partitions keeps both ends comfortable for simulated rings of a
# handful to a few dozen hosts.
DEFAULT_PARTITION_POWER = 8

_HASH_BITS = 32

# Preference-list walks are recomputed on every routing decision; the
# set of partitions is finite and small, so a bounded memo pays for
# itself on every operation.  Caches are per-ring and flushed by every
# membership *and* weight mutation.
_PLIST_CACHE_CAP = 4096


@lru_cache(maxsize=65536)
def _ring_hash(text: str) -> int:
    """A stable 32-bit ring position for ``text``.

    The memo is deliberately bounded: UID texts are unbounded over a
    long simulation, and an unbounded cache would be a slow leak.
    """
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _extend_with_ring(owners: list[str], ring: "ShardRouter",
                      key: Hashable, n: int) -> list[str]:
    """Append ``ring``'s owners of ``key`` not already listed.

    The one implementation of the dual-ownership union step: the
    earlier epoch's owners keep their places (they are guaranteed
    current -- reads prefer them, writes hit them first) and the other
    epoch's owners follow.  Shared by the live router's
    ``union_preference_list`` and a captured view's write/read orders,
    so harness placement and client routing can never diverge on what
    "the union" means.
    """
    for extra in ring.preference_list(key, n):
        if extra not in owners:
            owners.append(extra)
    return owners


@dataclass
class RingTransition:
    """A staged routing change: dual ownership until the flip.

    While a transition is attached to the live router, the live ring is
    the *old* epoch (reads prefer it) and ``target`` is the proposed
    ring (writes also flow to its owners).  ``added``/``removed`` name
    the membership delta and ``reweighted`` the weight delta for
    observers; ``epoch`` is the epoch the flip will land on.
    ``partitions``, when set, is the exact set of partitions whose
    preference list differs between the two rings -- the only entries a
    migration pass needs to touch.

    ``dirty`` is the un-confirmation channel: a client whose
    dual-ownership write could not reach one of the entry's replicas
    records the UID here, because the skipped replica may now be
    missing a committed write even if a migration pass had already
    confirmed its arc.  The ReshardManager drains the set and
    re-confirms those arcs before it will flip.
    """

    target: "ShardRouter"
    epoch: int
    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    reweighted: tuple[tuple[str, float], ...] = ()
    partitions: frozenset[int] | None = None
    dirty: set[str] = field(default_factory=set)

    def mark_dirty(self, uid: Hashable) -> None:
        """Record that a write to ``uid`` skipped an unreachable replica."""
        self.dirty.add(str(uid))


@dataclass
class _Placements:
    """Where defined keys went: shared by a router and all its clones.

    ``moved`` is the exception table (only keys that left their hash
    partition), ``placed`` every key ever placed and ``counts`` the
    keys per partition.  Append-only: a placed key never moves.
    """

    moved: dict[str, int] = field(default_factory=dict)
    placed: set[str] = field(default_factory=set)
    counts: Counter[int] = field(default_factory=Counter)


@dataclass
class _Loads:
    """One ring's per-host entry loads for replica sets of one size.

    Derived from the shared per-partition counts once per ring epoch,
    then kept current by the router's own placements.  ``choices``
    indexes every distinct preference list on the ring to its
    partitions, ascending.
    """

    primary: dict[str, int]
    replica: dict[str, int]
    choices: dict[tuple[str, ...], list[int]]


class ShardRouter:
    """A weighted consistent-hash ring over named shard hosts."""

    def __init__(self, nodes: Iterable[str],
                 replicas: int = DEFAULT_RING_REPLICAS,
                 partition_power: int = DEFAULT_PARTITION_POWER,
                 weights: Mapping[str, float] | None = None) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if not 1 <= partition_power <= 16:
            raise ValueError(
                f"partition_power must be in [1, 16], got {partition_power}")
        self.replicas = replicas
        self.partition_power = partition_power
        self.epoch = 0
        # The fencing token: advances on *every* observable routing
        # change (membership mutation, weight change, transition staged
        # / cleared), so a captured RingView's epoch matches the live
        # router's only while routing by that view is still correct.
        # Monotonic for the router's lifetime -- unlike ``epoch`` it is
        # never reset, so a snapshot can never collide with a later
        # state.
        self._fence = 0
        # A staged routing change (online resharding): while set,
        # clients write through both epochs' preference lists and read
        # old-first.  Set and cleared only by the ReshardManager.
        self._transition: RingTransition | None = None
        self._view: RingView | None = None
        self._nodes: list[str] = []
        self._weights: dict[str, float] = {}
        # Sorted (point, owner) pairs.  Keeping the owner inside the
        # sort key gives colliding points a deterministic order (by
        # owner name) instead of one that depends on insertion order.
        self._ring: list[tuple[int, str]] = []
        # Memoized preference-list walks, keyed (partition, n); flushed
        # by every membership and weight mutation (a cloned ring gets a
        # fresh memo).
        self._plist_cache: dict[tuple[int, int], list[str]] = {}
        self._placements = _Placements()
        # Per-host loads by replica-set size; flushed with the memo.
        self._loads: dict[int, _Loads] = {}
        boot_weights = dict(weights or {})
        for node in nodes:
            self.add_node(node, weight=boot_weights.get(node, 1.0))
        if not self._nodes:
            raise ValueError("a shard ring needs at least one node")
        self.epoch = 0  # boot membership is epoch 0; changes count from 1

    # -- membership and weights ---------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """The shard hosts, in insertion order."""
        return list(self._nodes)

    def weight_of(self, node: str) -> float:
        if node not in self._weights:
            raise ValueError(f"not a shard node: {node}")
        return self._weights[node]

    def _vnode_count(self, weight: float) -> int:
        # Every host claims at least one point, however small its
        # weight, so no live host can fall off the ring entirely.
        return max(1, round(weight * self.replicas))

    @property
    def transition(self) -> RingTransition | None:
        return self._transition

    @transition.setter
    def transition(self, staged: RingTransition | None) -> None:
        # Staging, aborting, or flipping a transition all change how
        # the next operation must route, so each advances the fence.
        self._transition = staged
        self._fence += 1
        self._view = None

    def _insert_points(self, node: str, start: int, stop: int) -> None:
        for index in range(start, stop):
            entry = (_ring_hash(f"{node}#{index}"), node)
            self._ring.insert(bisect.bisect_left(self._ring, entry), entry)

    def _touch(self) -> None:
        """Account one routing change: epoch, fence, and memo flush."""
        self.epoch += 1
        self._fence += 1
        self._view = None
        self._plist_cache.clear()
        self._loads.clear()

    def add_node(self, node: str, weight: float = 1.0) -> None:
        """Claim ``round(weight * replicas)`` ring points for ``node``."""
        if node in self._nodes:
            raise ValueError(f"shard node already on the ring: {node}")
        if not node:
            raise ValueError("shard node names must be non-empty")
        if weight <= 0:
            raise ValueError(f"shard weight must be positive: {weight}")
        self._nodes.append(node)
        self._weights[node] = weight
        self._insert_points(node, 0, self._vnode_count(weight))
        self._touch()

    def remove_node(self, node: str) -> None:
        """Release the node's points; its partitions fall to successors."""
        if node not in self._nodes:
            raise ValueError(f"not a shard node: {node}")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last shard node")
        self._nodes.remove(node)
        del self._weights[node]
        self._ring = [(p, o) for p, o in self._ring if o != node]
        self._touch()

    def set_weight(self, node: str, weight: float) -> None:
        """Change a host's weight, moving only the delta virtual nodes.

        Growing a weight adds the host's *next* point indices; shrinking
        removes its *highest* indices.  Points the host already held
        never move, so only partitions whose walk crosses one of the
        delta points can change owners -- the bounded-movement property
        :meth:`movement_bound` quantifies.  Any weight change advances
        the fence (and flushes the preference-list memo) even when the
        rounded vnode count happens not to change, so observers can
        rely on one rule: weight changed => epoch changed.
        """
        if node not in self._nodes:
            raise ValueError(f"not a shard node: {node}")
        if weight <= 0:
            raise ValueError(f"shard weight must be positive: {weight}")
        old = self._weights[node]
        if weight == old:
            return
        old_count = self._vnode_count(old)
        new_count = self._vnode_count(weight)
        self._weights[node] = weight
        if new_count > old_count:
            self._insert_points(node, old_count, new_count)
        else:
            for index in range(new_count, old_count):
                entry = (_ring_hash(f"{node}#{index}"), node)
                del self._ring[bisect.bisect_left(self._ring, entry)]
        self._touch()

    def clone(self) -> "ShardRouter":
        """An independent copy of the membership.

        Ring points are a pure function of the node names and weights,
        so a clone routes identically until one side mutates; the
        ReshardManager stages proposed rings this way.  The clone never
        carries a transition of its own.  The placement table is shared
        by reference: a key keeps its partition on every ring derived
        from this one, whichever of them placed it.
        """
        dup = ShardRouter.__new__(ShardRouter)
        dup.replicas = self.replicas
        dup.partition_power = self.partition_power
        dup.epoch = self.epoch
        dup._fence = self._fence
        dup._transition = None
        dup._view = None
        dup._nodes = list(self._nodes)
        dup._weights = dict(self._weights)
        dup._ring = list(self._ring)
        dup._plist_cache = {}
        dup._placements = self._placements
        dup._loads = {}
        return dup

    # -- fencing ------------------------------------------------------------

    @property
    def fence_epoch(self) -> int:
        """The current fencing token shard services compare tags against."""
        return self._fence

    def view(self) -> "RingView":
        """The current :class:`RingView` snapshot (cached per fence epoch).

        Clients capture one view per operation and route every replica
        of that operation by it; the view's ``epoch`` is the tag their
        RPCs carry.  The snapshot is immutable -- it clones the live
        membership -- so an epoch flip mid-operation changes what the
        *servers* accept, never what the captured view computes.
        """
        if self._view is None or self._view.epoch != self._fence:
            target = (self._transition.target
                      if self._transition is not None else None)
            self._view = RingView(self._fence, self.clone(), target,
                                  self._transition)
        return self._view

    # -- partitions ---------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return 1 << self.partition_power

    def partition_of(self, key: Hashable) -> int:
        """The fixed partition ``key`` belongs to: where :meth:`place`
        put it, else the top bits of its hash."""
        text = str(key)
        placed = self._placements.moved.get(text)
        if placed is not None:
            return placed
        return _ring_hash(text) >> (_HASH_BITS - self.partition_power)

    def _partition_start(self, partition: int) -> int:
        return partition << (_HASH_BITS - self.partition_power)

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.partition_count:
            raise ValueError(
                f"partition out of range [0, {self.partition_count}): "
                f"{partition}")

    def _first_point_at_or_after(self, point: int) -> int:
        """Ring index of the first vnode clockwise of (or at) ``point``.

        ``bisect_left`` on ``(point, "")`` finds the first pair whose
        position is >= ``point`` (node names are non-empty, so ``""``
        sorts before every owner at the same position): a partition
        starting *exactly* on a vnode belongs to that vnode's own
        owner, not the next one.
        """
        at = bisect.bisect_left(self._ring, (point, ""))
        return 0 if at == len(self._ring) else at

    def partition_owner(self, partition: int) -> str:
        """The host owning ``partition``'s arc."""
        self._check_partition(partition)
        start = self._first_point_at_or_after(self._partition_start(partition))
        return self._ring[start][1]

    def partition_preference(self, partition: int, n: int) -> list[str]:
        """The partition's owner plus its n-1 distinct successor hosts.

        Walking clockwise from the partition's start point and
        collecting distinct hosts yields the replica set for every key
        in the partition: crash-disjoint (all hosts distinct) and
        stable under ring growth.  ``n`` greater than the ring's host
        count returns every host.

        Walks are memoized per (partition, n): the ring is immutable
        between routing changes, so repeat lookups cost one dict hit
        instead of a full clockwise walk.  Callers get a fresh list
        each time -- the memo is never aliased out.
        """
        if n < 1:
            raise ValueError(f"preference list size must be >= 1, got {n}")
        self._check_partition(partition)
        memo_key = (partition, n)
        cached = self._plist_cache.get(memo_key)
        if cached is not None:
            return list(cached)
        start = self._first_point_at_or_after(self._partition_start(partition))
        owners: list[str] = []
        for offset in range(len(self._ring)):
            owner = self._ring[(start + offset) % len(self._ring)][1]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == n:
                    break
        if len(self._plist_cache) >= _PLIST_CACHE_CAP:
            self._plist_cache.clear()
        self._plist_cache[memo_key] = owners
        return list(owners)

    def partition_spread(self) -> dict[str, int]:
        """Partitions-per-host histogram (zeros included).

        The ring-balance measure: with uniform weights every host
        should own about ``partition_count / len(nodes)`` partitions;
        with weights, shares proportional to weight.
        """
        counts = {node: 0 for node in self._nodes}
        for partition in range(self.partition_count):
            counts[self.partition_owner(partition)] += 1
        return counts

    def moved_partitions(self, target: "ShardRouter", n: int) -> set[int]:
        """Partitions whose n-replica preference list differs vs ``target``.

        The staged diff of two weighted rings: exactly the entries a
        migration must copy (or GC) when transitioning from ``self`` to
        ``target``.  Both rings must share a partition power.
        """
        if target.partition_power != self.partition_power:
            raise ValueError("rings disagree on partition power")
        mine = min(n, len(self._nodes))
        theirs = min(n, len(target._nodes))
        return {partition for partition in range(self.partition_count)
                if self.partition_preference(partition, mine)
                != target.partition_preference(partition, theirs)}

    def movement_bound(self, target: "ShardRouter", n: int) -> int:
        """A deterministic a-priori cap on ``len(moved_partitions())``.

        A partition's preference list can change only if one of the
        vnode points added or removed by the change lands inside its
        distinct-host walk.  A walk for ``n`` hosts spans about ``n``
        of the ring's ``v`` gaps, so with ``d`` delta points the moved
        fraction is about ``1 - (1 - n/v)**d``; the bound doubles the
        walk span for headroom (consecutive same-owner points stretch
        a walk past ``n`` gaps).  With md5's fixed placement this holds
        for every change the test suite and benchmarks stage; it is a
        prediction *cap*, not an exact count -- compare with
        :meth:`moved_partitions` for the latter.
        """
        if target.partition_power != self.partition_power:
            raise ValueError("rings disagree on partition power")
        mine: Counter[tuple[int, str]] = Counter(self._ring)
        theirs: Counter[tuple[int, str]] = Counter(target._ring)
        delta = sum(((mine - theirs) + (theirs - mine)).values())
        if delta == 0:
            return 0
        points = min(len(self._ring), len(target._ring))
        walk = min(n, len(self._nodes), len(target._nodes))
        span = min(1.0, 2.0 * walk / max(1, points))
        fraction = 1.0 - (1.0 - span) ** delta
        return min(self.partition_count,
                   max(1, math.ceil(self.partition_count * fraction)))

    # -- placement ----------------------------------------------------------

    def place(self, key: Hashable, n: int) -> int:
        """Give a key being defined its partition, and return it.

        The replica set is the least loaded one: the primary is the
        host with the fewest entries as primary per unit of weight (then
        as a replica), the other ``n - 1`` the hosts with the fewest
        entries as a replica per unit of weight, remaining ties to the
        host that joined the ring first.  The key takes the nearest
        partition clockwise of its hash partition whose preference list
        is exactly that tuple; when no partition has it, the best tuple
        the ring does have, by (primary load, heaviest replica's load).
        That costs O(hosts x n) per key: partitions are walked once per
        ring epoch, to derive the loads and index the tuples, never per
        key.  A key placed before keeps its partition.
        """
        text = str(key)
        table = self._placements
        if text in table.placed:
            return self.partition_of(text)
        n = min(n, len(self._nodes))
        loads = self._loads.get(n) or self._loads_for(n)
        weights, as_primary, as_replica = (self._weights, loads.primary,
                                           loads.replica)
        # ``min`` and ``sorted`` keep the first of equals: ring order.
        primary = min(self._nodes, key=lambda node: (
            as_primary[node] / weights[node], as_replica[node] / weights[node]))
        others = sorted(self._nodes,
                        key=lambda node: as_replica[node] / weights[node])
        others.remove(primary)
        owners = (primary, *others[:n - 1])
        partitions = loads.choices.get(owners)
        if partitions is None:
            rank = {node: index for index, node in enumerate(self._nodes)}
            owners = min(loads.choices, key=lambda choice: (
                as_primary[choice[0]] / weights[choice[0]],
                max(as_replica[node] / weights[node] for node in choice),
                [rank[node] for node in choice]))
            partitions = loads.choices[owners]
        home = self.partition_of(text)  # not placed yet: its hash partition
        partition = partitions[bisect.bisect_left(partitions, home)
                               % len(partitions)]
        if partition != home:
            table.moved[text] = partition
            self._view = None  # a captured view may have routed it by hash
        table.placed.add(text)
        table.counts[partition] += 1
        as_primary[owners[0]] += 1
        for node in owners:
            as_replica[node] += 1
        return partition

    def _loads_for(self, n: int) -> _Loads:
        """Derive this ring's :class:`_Loads` for ``n``-host replica sets."""
        choices: dict[tuple[str, ...], list[int]] = {}
        for partition in range(self.partition_count):
            choices.setdefault(tuple(self.partition_preference(partition, n)),
                               []).append(partition)
        primary = dict.fromkeys(self._nodes, 0)
        replica = dict.fromkeys(self._nodes, 0)
        for partition, count in self._placements.counts.items():
            owners = self.partition_preference(partition, n)
            primary[owners[0]] += count
            for node in owners:
                replica[node] += count
        loads = self._loads[n] = _Loads(primary, replica, choices)
        return loads

    # -- routing ------------------------------------------------------------

    def shard_for(self, key: Hashable) -> str:
        """The shard host owning ``key`` (any value with a stable str)."""
        return self.partition_owner(self.partition_of(key))

    def preference_list(self, key: Hashable, n: int) -> list[str]:
        """The key's replica set: its partition's preference list.

        ``preference_list(k, 1) == [shard_for(k)]``; every key in a
        partition shares one list, which is what makes migration by
        partitions exhaustive.
        """
        return self.partition_preference(self.partition_of(key), n)

    def union_preference_list(self, key: Hashable, n: int) -> list[str]:
        """The key's replica set across both epochs of a transition.

        With no transition staged this is exactly
        :meth:`preference_list`.  During a transition the old epoch's
        owners come first (they are guaranteed current -- reads prefer
        them) followed by the target epoch's owners not already listed
        (they must see every write committed before the flip).
        """
        owners = self.preference_list(key, n)
        if self.transition is not None:
            _extend_with_ring(owners, self.transition.target, key, n)
        return owners

    def spread(self, keys: Iterable[Hashable]) -> dict[str, int]:
        """Keys-per-shard histogram over every shard (zeros included)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardRouter nodes={len(self._nodes)} "
                f"replicas={self.replicas} "
                f"partitions={self.partition_count}>")


class RingView:
    """One operation's immutable capture of the ring.

    A view pins three things for the duration of one replica-plane
    operation: the membership snapshot to route by (``ring``, a private
    clone the live router can no longer mutate), the staged target ring
    if a transition was live at capture time, and ``epoch`` -- the
    fence token every RPC of the operation is tagged with.  Servers
    reject the tag with :class:`~repro.net.errors.StaleRingEpoch` the
    instant the live router moves on, so a view can be *held* as long
    as the caller likes but can never *act* stale.

    The captured transition object is shared with the live router on
    purpose: :meth:`mark_dirty` must reach the ReshardManager's
    un-confirmation channel even from a snapshot.
    """

    def __init__(self, epoch: int, ring: "ShardRouter",
                 target: "ShardRouter | None",
                 transition: RingTransition | None) -> None:
        self.epoch = epoch
        self.ring = ring
        self.target = target
        self._transition = transition
        # Per-uid memo of (old-epoch preference list, target-epoch
        # extras), keyed (key, n).  The view is immutable, so the walk
        # result never changes; ``read_order`` rotations only reorder
        # the old-epoch half, which the memo keeps unrotated.
        self._orders: dict[tuple[str, int], tuple[list[str], list[str]]] = {}

    def _order_halves(self, key: Hashable,
                      n: int) -> tuple[list[str], list[str]]:
        memo_key = (str(key), n)
        halves = self._orders.get(memo_key)
        if halves is None:
            owners = self.ring.preference_list(key, n)
            extras: list[str] = []
            if self.target is not None:
                extras = [node for node in
                          _extend_with_ring(list(owners), self.target, key, n)
                          if node not in owners]
            if len(self._orders) >= _PLIST_CACHE_CAP:
                self._orders.clear()
            halves = (owners, extras)
            self._orders[memo_key] = halves
        return halves

    @property
    def in_transition(self) -> bool:
        """Whether a membership change was staged at capture time."""
        return self.target is not None

    def write_set(self, key: Hashable, n: int) -> list[str]:
        """The replicas a write must reach: both epochs' owners, old first.

        With no transition captured this is the plain preference list;
        during one it is the dual-ownership union -- the old owners
        (guaranteed current) followed by the incoming owners (which
        must see every write committed before the flip).
        """
        owners, extras = self._order_halves(key, n)
        return list(owners) + list(extras)

    def read_order(self, key: Hashable, n: int, rotation: int = 0) -> list[str]:
        """The replicas a read tries, in failover order.

        ``rotation`` rotates the starting replica across the old
        epoch's preference list (the ``spread`` read policy); a
        transition's incoming owners are appended *last* either way --
        until the flip they may not have been copied yet, so they serve
        only when every old-epoch replica is unreachable.
        """
        owners, extras = self._order_halves(key, n)
        order = list(owners)
        if rotation and len(order) > 1:
            start = rotation % len(order)
            order = order[start:] + order[:start]
        return order + list(extras)

    def mark_dirty(self, key: Hashable) -> None:
        """Report a write that skipped an unreachable replica.

        Forwards to the captured transition's dirty channel so the
        ReshardManager re-confirms the arc before flipping; a no-op
        when the view was captured outside any transition.
        """
        if self._transition is not None:
            self._transition.mark_dirty(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RingView epoch={self.epoch} nodes={len(self.ring)} "
                f"transition={self.in_transition}>")
