"""The coherence plane for write-hot entries.

PR 5's leased read plane is pull-based: every client re-probes (or
refetches) each entry when its lease TTL runs out.  For a write-hot
entry under a flash crowd that is the worst of both worlds -- a short
TTL turns the readers back into the very hot-arc RPC storm the cache
was built to absorb, a long TTL stretches the staleness bound.  This
module adds the push half of the protocol, the paper's "act on possibly
out-of-date naming info" upgraded to real coherence:

- :class:`LesseeRegistry` -- the owning shard host records which
  clients hold a live lease per uid (TTL-bounded soft state, volatile
  across crashes like every other server-side table here);
- :class:`CoherenceHost` -- the owner-side service: on every committed
  mutation of a registered entry it **pushes** a versioned,
  fence-epoch-tagged invalidation to the lessee cohort over the
  sequencer-ordered reliable multicast, riding the ``.sync`` NIC so
  pushes never queue behind client RPCs.  A :class:`WriteHotDetector`
  (windowed per-uid write-rate EWMA) decides which entries are worth
  the registry -- the mode rides the versioned read reply, so clients
  self-sort into pull or push without extra round trips;
- :class:`CoherenceClient` -- the client side: registers as a lessee
  over the owner's sync plane, joins the owner's multicast group as a
  late joiner (sequence handoff in the registration reply), and turns
  each delivered invalidation into a write-through cache eviction.

**The staleness argument.**  A pull-mode entry is bounded by its lease
TTL exactly as before.  A push-mode entry is held under a *longer*
registration TTL, and its effective staleness while the owner lives is
one push delivery (the multicast is reliable and ordered; a push
sequenced while a registration is still in flight is caught by the
member's pre-join stash).  If the owner crashes, or a push is lost with
the owner (volatile sequencer state), the client falls back to the
registration TTL -- the same *shape* of bound as pull mode, which is
why the ledger's per-entry lease span stays an honest witness.  Fence
epochs bound both modes identically: any ring movement kills every
pre-move entry at lookup, and a push tagged with a stale epoch (a
drained pre-GC owner's late commit) is ignored -- the live owner, a
dual-ownership participant of the same write, pushes its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator

from repro.naming.shard_router import ShardRouter
from repro.net.errors import RpcError
from repro.net.groups import GroupView
from repro.sim.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle (cluster -> naming)
    from repro.cluster.node import Node

# The owner-side registration/handover service.  Registered on the
# shard host's *sync* RPC agent only: lessee registrations and registry
# handovers are maintenance traffic and must never queue behind (or be
# gated with) the client-facing naming service.
COHERENCE_SERVICE_NAME = "coherence"

# Entry coherence modes, as carried in the versioned read reply.
PULL_MODE = "pull"
PUSH_MODE = "push"


def group_of(owner: str) -> str:
    """The multicast group an owner pushes its invalidations on."""
    return f"coh:{owner}"


class WriteHotDetector:
    """Windowed per-uid write-rate EWMA with a hysteresis mode flip.

    Each committed write folds its instantaneous rate (one over the
    interarrival gap) into an exponentially-weighted moving average;
    between writes the estimate decays as ``rate * exp(-idle/window)``
    so an entry that goes quiet cools off without needing another
    write to observe the silence.  :meth:`mode_of` flips an entry to
    push mode at ``hot_rate`` and back to pull only below
    ``cool_fraction * hot_rate`` -- the two thresholds keep a
    borderline entry from oscillating on every sample.
    """

    def __init__(self, clock: Any, hot_rate: float,
                 window: float = 10.0, smoothing: float = 0.3,
                 cool_fraction: float = 0.5) -> None:
        if hot_rate <= 0:
            raise ValueError(f"hot_rate must be > 0, got {hot_rate}")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if not 0.0 < cool_fraction < 1.0:
            raise ValueError(
                f"cool_fraction must be in (0, 1), got {cool_fraction}")
        self.clock = clock
        self.hot_rate = hot_rate
        self.window = window
        self.smoothing = smoothing
        self.cool_fraction = cool_fraction
        # uid -> (ewma rate at last write, last write time)
        self._rates: dict[str, tuple[float, float]] = {}
        self._push: set[str] = set()

    def record_write(self, uid_text: str) -> None:
        now = self.clock()
        state = self._rates.get(uid_text)
        if state is None:
            # First observation: seed at one write per window -- cold,
            # so a single write can never flip a sane threshold.
            self._rates[uid_text] = (1.0 / self.window, now)
            return
        rate, last = state
        gap = now - last
        # Same-instant bursts (several uids in one commit, or zero
        # simulated latency) cap at the rate a full window of writes
        # at the smallest representable gap would imply.
        instant = 1.0 / gap if gap > 0 else self.hot_rate / self.smoothing
        decayed = rate * math.exp(-gap / self.window)
        ewma = self.smoothing * instant + (1.0 - self.smoothing) * decayed
        self._rates[uid_text] = (ewma, now)

    def effective_rate(self, uid_text: str) -> float:
        """The write-rate estimate decayed to the current instant."""
        state = self._rates.get(uid_text)
        if state is None:
            return 0.0
        rate, last = state
        return rate * math.exp(-(self.clock() - last) / self.window)

    def mode_of(self, uid_text: str) -> str:
        rate = self.effective_rate(uid_text)
        if uid_text in self._push:
            if rate < self.cool_fraction * self.hot_rate:
                self._push.discard(uid_text)
                return PULL_MODE
            return PUSH_MODE
        if rate >= self.hot_rate:
            self._push.add(uid_text)
            return PUSH_MODE
        return PULL_MODE

    def forget(self, uid_text: str) -> None:
        self._rates.pop(uid_text, None)
        self._push.discard(uid_text)

    def export_state(self, uid_texts: list[str]) -> dict[str, Any]:
        """Wire form of the named uids' hotness (reshard handover)."""
        out: dict[str, Any] = {}
        for uid_text in uid_texts:
            state = self._rates.get(uid_text)
            if state is not None:
                out[uid_text] = (state[0], state[1],
                                 uid_text in self._push)
        return out

    def install_state(self, payload: dict[str, Any]) -> None:
        """Adopt a peer's exported hotness (fresher-sample-wins merge)."""
        for uid_text, (rate, last, pushed) in payload.items():
            mine = self._rates.get(uid_text)
            if mine is None or mine[1] < last:
                self._rates[uid_text] = (rate, last)
                if pushed:
                    self._push.add(uid_text)
                else:
                    self._push.discard(uid_text)

    def reset(self) -> None:
        self._rates.clear()
        self._push.clear()


class LesseeRegistry:
    """Which clients hold a live (registered) lease, per uid.

    Soft state with a TTL: a client that stops renewing simply ages
    out, so a crashed or departed lessee never wedges the cohort.  The
    registry expires *later* than the client-side lease it mirrors
    (the client anchors its lease at probe-send time, the server
    stamps the registration at receive time), so the safe direction
    holds: the owner may push to an already-expired client (wasted
    frame), never the reverse.
    """

    def __init__(self, clock: Any, ttl: float) -> None:
        if ttl <= 0:
            raise ValueError(f"registration ttl must be > 0, got {ttl}")
        self.clock = clock
        self.ttl = ttl
        # uid -> {client: expiry}
        self._leases: dict[str, dict[str, float]] = {}

    def register(self, uid_text: str, client: str) -> None:
        self._leases.setdefault(uid_text, {})[client] = self.clock() + self.ttl

    def _prune(self, uid_text: str) -> dict[str, float]:
        holders = self._leases.get(uid_text, {})
        now = self.clock()
        live = {client: expiry for client, expiry in holders.items()
                if expiry > now}
        if live:
            self._leases[uid_text] = live
        else:
            self._leases.pop(uid_text, None)
        return live

    def lessees(self, uid_text: str) -> list[str]:
        """The uid's live lessees (expired ones pruned on the way)."""
        return sorted(self._prune(uid_text))

    def all_clients(self) -> set[str]:
        """Every client holding any live registration (cohort view)."""
        clients: set[str] = set()
        for uid_text in list(self._leases):
            clients.update(self._prune(uid_text))
        return clients

    def forget(self, uid_text: str) -> None:
        self._leases.pop(uid_text, None)

    def export_state(self, uid_texts: list[str]) -> dict[str, dict[str, float]]:
        """Wire form of the named uids' registrations (handover)."""
        return {uid_text: dict(self._prune(uid_text))
                for uid_text in uid_texts if uid_text in self._leases}

    def install_state(self,
                      payload: dict[str, dict[str, float]]) -> None:
        """Adopt a peer's exported registrations (latest-expiry wins)."""
        for uid_text, holders in payload.items():
            mine = self._leases.setdefault(uid_text, {})
            for client, expiry in holders.items():
                if expiry > mine.get(client, 0.0):
                    mine[client] = expiry
            if not mine:
                del self._leases[uid_text]

    def clear(self) -> None:
        self._leases.clear()


class CoherenceHost:
    """The owner side: registry, detector, and the invalidation pusher.

    Installed next to :class:`~repro.cluster.store_host.NameShardHost`
    on every shard host.  The RPC surface
    (:meth:`register_lessee` / :meth:`export_coherence` /
    :meth:`install_coherence`) is registered on the node's **sync**
    agent only, and pushes leave through the
    node's **sync** multicast member -- coherence is maintenance
    traffic and never queues behind client requests.

    All state here is volatile: a crash wipes registry, detector, and
    the sequencer's numbering, and the boot hook reinstalls everything
    empty.  Clients discover the restart on their next registration
    (the handed-back ``from_seq`` went backwards) and rejoin fresh.
    """

    def __init__(self, node: "Node", db: Any, router: ShardRouter,
                 registration_ttl: float, hot_write_rate: float = 1.0,
                 detector_window: float = 10.0,
                 metrics: MetricsRegistry | None = None) -> None:
        self.node = node
        self.db = db
        self.router = router
        self.registration_ttl = registration_ttl
        self.metrics = metrics or MetricsRegistry()
        self.group = group_of(node.name)
        self._mcast = node.sync_mcast
        self.member = self._mcast.name
        self.registry = LesseeRegistry(clock=lambda: node.scheduler.now,
                                       ttl=registration_ttl)
        self.detector = WriteHotDetector(clock=lambda: node.scheduler.now,
                                         hot_rate=hot_write_rate,
                                         window=detector_window)
        self._view = GroupView.of(self.member)
        self._view_version = 0
        self._hook: Any = None
        self.retired = False
        db.coherence = self

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "CoherenceHost":
        """Boot hook: serve the coherence plane now and after recoveries."""
        def hook(node: "Node") -> None:
            # Crash semantics first: registry, detector, and group view
            # are volatile, and the re-join resets the sequencer's
            # numbering (clients detect that via from_seq and rejoin).
            self.reset()
            node.sync_rpc.register(COHERENCE_SERVICE_NAME, self)

        self._hook = hook
        self.node.add_boot_hook(hook)
        return self

    def reset(self) -> None:
        self.registry.clear()
        self.detector.reset()
        self._view = GroupView.of(self.member)
        self._view_version = 0
        if self._mcast.joined(self.group):
            self._mcast.leave(self.group)
        self._mcast.join(self.group, self._view, self._absorb)

    def retire(self) -> None:
        """Stop serving (a drained host), now and after any recovery."""
        if self.retired:
            return
        self.retired = True
        self.node.sync_rpc.unregister(COHERENCE_SERVICE_NAME)
        self._mcast.leave(self.group)
        if self._hook in self.node.boot_hooks:
            self.node.boot_hooks.remove(self._hook)
        if getattr(self.db, "coherence", None) is self:
            self.db.coherence = None
        self.registry.clear()
        self.detector.reset()

    def _absorb(self, delivery: Any) -> None:
        """The owner is a group member for sequencing; deliveries no-op."""

    def _sync_view(self) -> GroupView:
        """Rebuild the cohort view from the live registrations."""
        members = (self.member,) + tuple(sorted(self.registry.all_clients()))
        if members != self._view.members:
            self._view_version += 1
            self._view = GroupView(members, version=self._view_version)
            self._mcast.update_view(self.group, self._view)
        return self._view

    # -- RPC surface (sync plane only) ---------------------------------------

    def register_lessee(self, client: str, uid_text: str) -> tuple:
        """Record ``client`` as a live lessee of ``uid_text``.

        Returns ``(ttl, members, view_version, from_seq, versions)``:
        the registration TTL the client's lease span must not exceed,
        the cohort view to join, the sequencer's next sequence number
        (the late-joiner handoff -- see ``MulticastMember.join``), and
        the entry's current write versions so the client can prove its
        just-read snapshot is still current before caching it under
        the long push-mode lease.
        """
        self.registry.register(uid_text, client)
        view = self._sync_view()
        self.metrics.counter("coherence.registrations").increment()
        return (self.registration_ttl, list(view.members), view.version,
                self._mcast.next_send_seq(self.group),
                tuple(self.db.entry_versions(uid_text)))

    def export_coherence(self, uid_texts: list[str]) -> dict[str, Any]:
        """Registry + detector state for a reshard handover (RPC)."""
        return {"registry": self.registry.export_state(uid_texts),
                "detector": self.detector.export_state(uid_texts)}

    def install_coherence(self, payload: dict[str, Any]) -> bool:
        """Adopt a handed-over registry/detector slice (RPC).

        The arc-migration coordinator moves each moved uid's coherence
        state from its outgoing owner to the incoming one so the new
        owner knows the entry is hot (first read reply already says
        push) and keeps pushing to the surviving registrations.  The
        handed-over lessees still have to re-register to join *this*
        owner's multicast group -- their cached entries died at the
        epoch flip anyway -- so until they do, pushes to them are
        wasted frames, never missed ones.
        """
        self.registry.install_state(payload.get("registry", {}))
        self.detector.install_state(payload.get("detector", {}))
        self._sync_view()
        self.metrics.counter("coherence.handovers_installed").increment()
        return True

    # -- the commit hook -----------------------------------------------------

    def note_committed(self, uid_texts: list[str]) -> None:
        """A mutation of these entries just committed on our database.

        Called synchronously by the database's 2PC commit (and by
        version-gated maintenance installs).  Every replica feeds its
        detector -- a failover read served by a secondary should still
        learn the entry is hot -- but only the entry's **live owner**
        pushes: exactly one sequencer per entry, and a drained pre-GC
        owner's late commit is suppressed here (its push would carry a
        dead epoch; the dual-ownership write already committed on the
        live owner, which pushes with the current one).
        """
        for uid_text in uid_texts:
            self.detector.record_write(uid_text)
            if self.router.shard_for(uid_text) != self.node.name:
                self.metrics.counter(
                    "coherence.pushes_suppressed_not_owner").increment()
                continue
            lessees = self.registry.lessees(uid_text)
            if not lessees:
                continue
            view = self._sync_view()
            payload = ("inval", uid_text,
                       tuple(self.db.entry_versions(uid_text)),
                       self.router.fence_epoch)
            self._mcast.send(self.group, view, payload)
            self.metrics.counter("coherence.pushes_sent").increment()

    def forget(self, uid_text: str) -> None:
        """GC: this host no longer owns the entry (post-flip cleanup)."""
        self.registry.forget(uid_text)
        self.detector.forget(uid_text)

    def mode_of(self, uid_text: str) -> str:
        """The entry's current coherence mode, for the read reply."""
        return self.detector.mode_of(uid_text)


class CoherenceClient:
    """The lessee side: registration, group membership, and eviction.

    One per leased db client.  ``register`` rides the owner's **sync**
    plane (``io.sync_rpc`` to the owner's ``.sync`` NIC) and closes the
    registration/push race deterministically: the member starts
    stashing the owner's group frames *before* the registration RPC is
    in flight, so a push sequenced between the reply being computed
    and the join taking effect is drained by the join instead of
    dropped.  Deliveries evict write-through, exactly like the
    client's own mutations do.
    """

    def __init__(self, node: "Node", io: Any, cache: Any,
                 metrics: MetricsRegistry | None = None) -> None:
        self.node = node
        self.io = io
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        self._mcast = node.mcast

    @property
    def router(self) -> ShardRouter:
        return self.io.router

    def owner_of(self, uid_text: str) -> str:
        return self.router.shard_for(uid_text)

    # -- delivery ------------------------------------------------------------

    def handle(self, delivery: Any) -> None:
        """One pushed invalidation: evict the named entry outright."""
        payload = delivery.payload
        if not isinstance(payload, tuple) or payload[0] != "inval":
            return
        _kind, uid_text, _versions, epoch = payload
        if epoch < self.router.fence_epoch:
            # A drained pre-GC owner's late push: every entry cached
            # under that epoch is already fence-dead at lookup, and the
            # live owner pushed this write with the current epoch.
            self.metrics.counter("coherence.pushes_ignored_stale").increment()
            return
        self.cache.invalidate(uid_text)
        self.metrics.counter("coherence.pushes_applied").increment()

    # -- registration --------------------------------------------------------

    def register(self, uid_text: str,
                 ) -> Generator[Any, Any, "tuple[float, tuple] | None"]:
        """Register as a lessee of ``uid_text`` with its live owner.

        Returns ``(ttl, versions)`` -- the registration TTL (the
        client-side lease span for the push-mode entry) and the
        entry's write versions at registration time -- or ``None``
        when the owner is dark (the caller falls back to pull mode).
        """
        owner = self.owner_of(uid_text)
        group = group_of(owner)
        fresh = not self._mcast.joined(group)
        expect = getattr(self._mcast, "expect", None)
        if fresh and expect is not None:
            expect(group)
        try:
            reply = yield self.io.sync_rpc.call(
                self.io.sync_target(owner), COHERENCE_SERVICE_NAME,
                "register_lessee", self.node.name, uid_text)
        except RpcError:
            if fresh and expect is not None:
                self._mcast.unexpect(group)
            self.metrics.counter("coherence.registrations_failed").increment()
            return None
        ttl, members, version, from_seq, versions = reply
        if self.node.name not in members:
            # The owner reset between our registration and its reply
            # computation (cannot happen in one dispatch; defensive).
            return None
        view = GroupView(tuple(members), version=version)
        start = from_seq if from_seq is not None else 1
        if self._mcast.joined(group):
            current = self._mcast.next_seq(group)
            if current is not None and start < current:
                # The owner restarted: its sequencer numbering reset, so
                # our old high-water mark would discard every new push.
                self._mcast.leave(group)
                self._mcast.join(group, view, self.handle, from_seq=start)
            else:
                self._mcast.update_view(group, view)
        else:
            self._mcast.join(group, view, self.handle, from_seq=start)
        self.metrics.counter("coherence.registered").increment()
        return ttl, tuple(versions)
