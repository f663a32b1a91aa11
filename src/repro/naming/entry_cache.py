"""The client-side half of the leased read plane.

The paper's central trick is that clients may act on *possibly
out-of-date* naming information as long as staleness is detected and
repaired at use time.  PRs 1-4 kept the detection machinery (per-entry
write versions, epoch fencing, read-repair) but the hot lookup path
still paid a full RPC plus read locks for every ``GetServer`` -- even
for red-hot bindings that had not changed in thousands of simulated
seconds.  :class:`EntryCache` is the missing piece: a per-client LRU of
committed entry snapshots, each held under a *lease*, so the hot path
is usually RPC-free and always lock-free.

**The staleness argument.**  A cached entry may be served only while
two bounds hold, checked on every lookup:

- **lease**: ``now <= fetched_at + lease`` -- the snapshot is at most
  one lease TTL old, so a binding served from cache can never be staler
  than the operator-chosen ``nameserver_lease``;
- **epoch**: the entry's captured ring fence epoch still equals the
  live router's ``fence_epoch`` -- any observable routing change
  (reshard staged/flipped/aborted, membership mutation, failover
  re-registration) advances the fence, so resharding and failover
  safety fall out of PR 4's fencing for free: the instant the ring
  moves, every cached binding routed by the old ring is dead.

Entries are additionally invalidated *write-through* by the owner's own
mutations (a client never serves itself a binding it knows it changed)
and repopulated through the server's lock-free
``read_entry_versioned`` -- a committed snapshot plus write versions
taken under probe locks that never span the wire.

A stale-but-in-bounds cached binding is exactly as dangerous as the
paper's out-of-date naming data: the server it names may be gone, and
the binder discovers that at use time and repairs (Remove + rebind),
precisely the protocol figures 6-8 already implement.  What the cache
must never do is *exceed* its declared bounds; the optional
:attr:`EntryCache.ledger` records every cache-served read with both
bounds re-checked at serve time, so churn harnesses can prove no hit
ever escaped them.

**Serializability.**  A cache hit takes no read lock, so a transaction
acting on it gets lease consistency, not serializability (the same deal
the paper's section-5 non-atomic variant offers): *lease and fence
epoch* is the plane's one contract.  A deployment that needs
serializable naming reads runs without the plane
(``nameserver_lease=None``), where every read takes its lock under the
calling action.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

from repro.sim.metrics import MetricsRegistry

DEFAULT_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class CachedEntry:
    """One leased snapshot of a group-view entry.

    Exactly what the plane serves -- the Sv hosts and the St view,
    version-stamped.  Use lists are deliberately *not* cached: the
    use-list reads (``get_binding_with_uses``, ``get_server_with_uses``)
    are write-intent reads that always take the authoritative locking
    path, so caching them would be dead weight copied on every
    repopulation.
    """

    hosts: tuple[str, ...]
    view: tuple[str, ...]
    versions: tuple[int, int]
    ring_epoch: int
    fetched_at: float
    lease_expiry: float
    # "pull" entries live one lease TTL; "push" entries were registered
    # with the owner's coherence plane and hold the (longer)
    # registration TTL, invalidated by owner pushes in between.
    mode: str = "pull"

    @property
    def lease_span(self) -> float:
        """The lease length this entry was stored (or renewed) under."""
        return self.lease_expiry - self.fetched_at


@dataclass(frozen=True)
class LedgerRecord:
    """One cache-served read, with its bounds re-checked at serve time."""

    uid: str
    fetched_at: float
    served_at: float
    ring_epoch: int
    live_epoch: int
    lease: float

    @property
    def age(self) -> float:
        return self.served_at - self.fetched_at

    def violates_bounds(self) -> bool:
        """True if this hit escaped the lease or the epoch bound."""
        return self.age > self.lease or self.ring_epoch != self.live_epoch


class EntryCache:
    """Per-client LRU of leased group-view entry snapshots."""

    def __init__(self, lease: float, fence: Callable[[], int],
                 clock: Callable[[], float],
                 capacity: int = DEFAULT_CACHE_CAPACITY,
                 metrics: MetricsRegistry | None = None,
                 keep_ledger: bool = False,
                 renewal: bool = False) -> None:
        if lease <= 0:
            raise ValueError(f"lease TTL must be > 0, got {lease}")
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.lease = lease
        self.fence = fence
        self.clock = clock
        self.capacity = capacity
        self.metrics = metrics or MetricsRegistry()
        self.keep_ledger = keep_ledger
        # With renewal on, an expired entry lingers *peekable* (never
        # servable) so a lightweight version probe can extend its lease
        # in place instead of refetching the whole snapshot.  The
        # trade: dead entries now depend on invalidation -- push,
        # write-through, fence, or LRU pressure -- to actually leave,
        # which is why invalidation evicts the slot outright.
        self.renewal = renewal
        # Lease anchor: "send" (the correct discipline -- the caller's
        # pre-suspension clock reading bounds the round trip too) or
        # "receive" (the *fault injection* mode: leases re-anchor at
        # reply-receive time, so true staleness can exceed the declared
        # TTL by one round trip without the ledger noticing).  Flipped
        # by FaultPlan skew events; never set "receive" outside an
        # injection experiment.
        self.anchor = "send"
        self.skewed_stores = 0  # stores/renews re-anchored by injection
        self.ledger: list[LedgerRecord] = []
        self.hits = 0
        self.misses = 0
        self.renewed = 0   # leases extended in place by a version match
        self.expired = 0   # lookups refused because the lease ran out
        self.fenced = 0    # lookups refused because the ring moved on
        self._entries: "OrderedDict[str, CachedEntry]" = OrderedDict()
        # Store-time race guard: a repopulating read captures the uid's
        # invalidation token before it suspends on the network; a write
        # that lands in between advances the token, so the read's store
        # is refused and the stale pre-write snapshot cannot resurrect
        # under a fresh lease.  Per-uid counters, plus a generation the
        # pruning clear advances so an in-flight capture can never
        # survive the prune.
        self._store_gen = 0
        self._tokens: dict[str, int] = {}

    # -- the read path -------------------------------------------------------

    def lookup(self, uid_text: str) -> CachedEntry | None:
        """The entry if both bounds hold; ``None`` (a miss) otherwise.

        Expired and fenced entries are dropped on the way out, so a
        miss for either reason repopulates with a fresh snapshot rather
        than re-testing a dead one forever.
        """
        entry = self._entries.get(uid_text)
        live_epoch = self.fence()
        if entry is None:
            self._miss("miss")
            return None
        if entry.ring_epoch != live_epoch:
            self._entries.pop(uid_text, None)
            self.fenced += 1
            self._miss("fenced")
            return None
        now = self.clock()
        if now > entry.lease_expiry:
            if not self.renewal:
                self._entries.pop(uid_text, None)
            self.expired += 1
            self._miss("expired")
            return None
        self._entries.move_to_end(uid_text)
        self.hits += 1
        self.metrics.counter("entry_cache.hits").increment()
        if self.keep_ledger:
            self.ledger.append(LedgerRecord(
                uid=uid_text, fetched_at=entry.fetched_at, served_at=now,
                ring_epoch=entry.ring_epoch, live_epoch=live_epoch,
                lease=entry.lease_span))
        return entry

    def peek(self, uid_text: str) -> CachedEntry | None:
        """The stored entry regardless of lease expiry -- never servable.

        The renewal path's view: an expired-but-unfenced entry is still
        a valid version-stamped snapshot, and a probe proving its
        versions unchanged may re-anchor its lease instead of paying a
        full refetch.  Fenced entries are dropped here too -- no ring
        movement survives in any form.
        """
        entry = self._entries.get(uid_text)
        if entry is None:
            return None
        if entry.ring_epoch != self.fence():
            self._entries.pop(uid_text, None)
            self.fenced += 1
            return None
        return entry

    def renew(self, uid_text: str, fetched_at: float,
              lease: float | None = None,
              token: tuple[int, int] | None = None) -> CachedEntry | None:
        """Extend an entry's lease in place after a version match.

        ``fetched_at`` is the clock reading from *before* the caller
        suspended on its probe (the match certifies the snapshot as of
        probe-send time, so the lease re-anchors there -- same
        round-trip discipline as :meth:`store`).  ``token`` makes the
        renewal conditional exactly like a store: a write-through or
        pushed invalidation landing mid-probe refuses it.  Returns the
        renewed entry, or ``None`` when nothing renewable remains.
        """
        if token is not None and token != self.invalidation_token(uid_text):
            self.metrics.counter("entry_cache.racing_renewals_dropped").increment()
            return None
        entry = self.peek(uid_text)
        if entry is None:
            return None
        if self.anchor == "receive":
            fetched_at = self.clock()
            self.skewed_stores += 1
        span = self.lease if lease is None else lease
        renewed = replace(entry, fetched_at=fetched_at,
                          lease_expiry=fetched_at + span)
        self._entries[uid_text] = renewed
        self._entries.move_to_end(uid_text)
        self.renewed += 1
        self.metrics.counter("entry_cache.renewed").increment()
        return renewed

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.metrics.counter("entry_cache.misses").increment()
        if reason != "miss":
            self.metrics.counter(f"entry_cache.misses_{reason}").increment()

    # -- population and invalidation -----------------------------------------

    def invalidation_token(self, uid_text: str) -> tuple[int, int]:
        """The uid's current invalidation token.

        A repopulating read captures it *before* suspending on the
        network and hands it back to :meth:`store`; any
        :meth:`invalidate` in between changes the token, refusing the
        store.
        """
        return (self._store_gen, self._tokens.get(uid_text, 0))

    def store(self, uid_text: str, hosts: list[str], view: list[str],
              versions: tuple[int, int],
              ring_epoch: int | None = None,
              token: tuple[int, int] | None = None,
              fetched_at: float | None = None,
              lease: float | None = None,
              mode: str = "pull") -> CachedEntry | None:
        """Install a freshly-read committed snapshot under a new lease.

        ``ring_epoch`` defaults to the live fence -- callers that
        captured a view *before* the read pass the captured epoch, so a
        flip between capture and store leaves a dead entry (invalidated
        on first lookup) rather than one mislabelled as current.

        ``token`` (from :meth:`invalidation_token`, captured before the
        caller suspended on its read) makes the install conditional: a
        write-through invalidation that landed while the read was in
        flight advances the token, and the now-stale snapshot is
        refused (returns ``None``) instead of resurrecting the
        pre-write binding under a fresh lease -- the caller falls back
        to the authoritative read, which serializes behind the write.

        ``fetched_at`` anchors the lease: callers pass the clock
        reading from *before* they suspended on the read, so the
        "never staler than one lease" bound covers the round-trip
        latency too -- stamping at store time would quietly extend the
        bound by however long the reply took.

        ``lease`` overrides the cache-wide TTL for this one entry: a
        push-mode entry registered with its owner's coherence plane is
        stored under the (longer) registration TTL, with ``mode`` set
        so readers and the ledger know which bound applies.
        """
        if token is not None and token != self.invalidation_token(uid_text):
            self.metrics.counter("entry_cache.racing_stores_dropped").increment()
            return None
        fetched = self.clock() if fetched_at is None else fetched_at
        if self.anchor == "receive" and fetched_at is not None:
            # Injected lease skew: discard the caller's send-time
            # anchor and stamp at store time, silently extending the
            # staleness bound by the reply's flight time.
            fetched = self.clock()
            self.skewed_stores += 1
        span = self.lease if lease is None else lease
        entry = CachedEntry(
            hosts=tuple(hosts), view=tuple(view), versions=tuple(versions),
            ring_epoch=self.fence() if ring_epoch is None else ring_epoch,
            fetched_at=fetched, lease_expiry=fetched + span, mode=mode)
        self._entries[uid_text] = entry
        self._entries.move_to_end(uid_text)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics.counter("entry_cache.evicted").increment()
        return entry

    def invalidate(self, uid_text: str) -> None:
        """Invalidation: this client wrote the entry, or its owner
        pushed.

        The slot is evicted *outright* -- not tombstoned to age out --
        which matters with renewal on: expired entries linger peekable
        there, so an un-evicted dead snapshot could be version-probed
        back to life after the write it missed.

        Advances the uid's invalidation token even when nothing is
        cached: a repopulating read may be suspended mid-flight right
        now, and its store must be refused or the pre-write snapshot it
        carries would outlive this invalidation by a whole lease.
        """
        if self._entries.pop(uid_text, None) is not None:
            self.metrics.counter("entry_cache.invalidated").increment()
        self._tokens[uid_text] = self._tokens.get(uid_text, 0) + 1
        if len(self._tokens) > 4 * self.capacity:
            # Prune by wholesale clear; the generation bump keeps every
            # in-flight capture refusable despite the reset counters.
            self._tokens.clear()
            self._store_gen += 1

    # -- proof surface -------------------------------------------------------

    def ledger_violations(self) -> list[LedgerRecord]:
        """Every ledger hit that escaped its lease/epoch bounds.

        Empty by construction -- :meth:`lookup` re-checks both bounds
        before serving -- but the churn harness asserts it anyway: the
        ledger is the independent witness that the construction holds
        under reshards and failovers, not a tautology re-stated.
        """
        return [record for record in self.ledger if record.violates_bounds()]

