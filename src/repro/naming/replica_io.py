"""The replica data-plane engine for the sharded name service.

Three consumers share one replica protocol -- the sharded client's
fan-out writes and failover reads, the shard-resync daemon's catch-up
copies, and the online-reshard arc migration.  :class:`ReplicaIO` is
the single engine they all call instead of each carrying its own
fan-out / failover / probe-and-install loops, split along the two
planes the protocol actually has:

**Client plane** (action-scoped, epoch-fenced).  Every operation
captures one :class:`~repro.naming.shard_router.RingView` and tags its
RPCs with the view's fence token.  Two walks carry it:

- the fan-out walk (:meth:`_fan_out`) sends a mutating operation to
  every live replica of the view's write sets, one request per shard,
  enlisting each *reached* shard as its own late 2PC participant of the
  calling action (``call_reached``).  :meth:`write` is its one-entry
  case; :meth:`exclude` groups the multi-UID ``Exclude``;
- the first-answer walk (:meth:`read`) serves from the first live
  replica of the view's read order, failing over past dark or
  disclaiming replicas; rotation, peer health and ``view_action`` are
  its alone.

Where the view gives an entry a single home (replication 1 and no
staged transition: the paper's lone name node, or an unreplicated
ring) both walks enlist that home eagerly instead of once reached
(``call_enlisted``).  Both raise one verdict (:func:`_verdict`) for an
entry no replica served: an outage outranks a replica's ignorance.

A replica answering :class:`~repro.net.errors.StaleRingEpoch` proves
the membership moved past the captured view *before the request
dispatched*: nothing executed there, so the walk refreshes the view
and retries against the current owners, at most :data:`STALE_RETRIES`
times -- skipping replicas that already executed the request (applied
or disclaimed), which stay enlisted participants.  This fenced retry
is what replaced the reshard pipeline's settle interval: a write
routed by a pre-transition view either executed before the staging or
is rejected and re-routed through the dual-ownership union; there is
no in-between window for it to land on the wrong owners.

**Sync plane** (replica maintenance, unfenced).  Resync and migration
keep replicas convergent *across* epochs -- their traffic must flow
even to hosts the live ring does not own yet (incoming owners mid-copy)
or no longer owns (sources being drained), so it is deliberately not
fenced; per-entry write versions carry correctness instead.  A version
is ``(count, digest)`` per half, so it names the content: replicas at
equal versions hold equal entries, and of two equal-count copies the
greater digest is ahead.  One engine levels replicas, whoever asks:

- :meth:`diff_many` -- the comparison: one ``diff_partitions`` round
  trip per node carries the caller's partition digests, and the node
  answers with its write versions of the entries in the partitions
  whose digests differ (nothing, when in sync);
- :meth:`converge` -- for a batch of entries with named source and
  target replicas: one ``read_entry_versioned_many`` per fresher
  source (each snapshot taken under server-local probe locks that live
  and die inside the dispatch) and a lock-guarded, version-gated
  ``guarded_install_entry`` per lagging target, all of one source's
  installs sent before any reply is awaited.  The version order is
  the whole winner rule, so pull and push settle a divergence on the
  same copy in the same single phase.

Shard resync, its anti-entropy sweep, and the reshard migration are
*triggers* over that engine: each decides when to run, which entries,
and which replicas are sources and targets.  A target may be the
caller's own database (a resync pulling into the host it runs on):
named in ``local``, it is read and installed by direct call, never
over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Generator, Iterable, Mapping, NamedTuple,
                    Sequence)

from repro.actions.action import AtomicAction
from repro.naming.db_base import Version
from repro.naming.db_client import GroupViewDbClient
from repro.naming.errors import UnknownObject
from repro.naming.group_view_db import SYNC_SERVICE_NAME
from repro.naming.shard_router import RingView, ShardRouter
from repro.net.errors import RpcError, StaleRingEpoch
from repro.net.rpc import RpcAgent
from repro.sim.futures import Future
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

Versions = tuple[Version, Version]  # (server, state) write versions
Probes = dict[str, Versions]  # replica name -> its probed versions
# What :meth:`ReplicaIO.converge` levels: uid -> (sources, targets).
Entries = Mapping[str, tuple[Probes, Probes]]

READ_POLICIES = ("primary", "spread")

# How many StaleRingEpoch refresh-and-retry rounds one operation will
# absorb before giving up.  Each retry proves the membership moved
# mid-operation; rings do not flip often enough for a live system to
# exhaust this, so hitting the cap indicates a routing storm and the
# operation fails with the (retryable) fencing error.
STALE_RETRIES = 4


@dataclass(frozen=True)
class EntryCopy:
    """One entry's committed state, version-stamped, ready to install."""

    hosts: list[str]
    uses: dict[str, dict[str, int]]
    view: list[str]
    versions: Versions
    # The coherence plane's verdict for the entry: "pull" (lease+TTL)
    # or "push" (register with the owner; it multicasts invalidations).
    mode: str

    @classmethod
    def from_wire(cls, result: Any) -> "EntryCopy":
        """Decode one ``read_entry_versioned`` wire tuple (the one
        implementation every versioned-read consumer shares)."""
        hosts, uses, view, versions, mode = result
        return cls(list(hosts),
                   {host: dict(counters) for host, counters in uses.items()},
                   list(view), tuple(versions), mode)


class _Leg(NamedTuple):
    """One replica request of a :meth:`ReplicaIO.read_versioned` walk."""

    node: str
    sent_at: float  # on the health tracker's clock
    reply: Future


class Converged(NamedTuple):
    """What :meth:`ReplicaIO.converge` did for one entry."""

    # "clean" | "copied" | "settled" | "deferred" | "unknown"
    outcome: str
    installed: int  # version-gated installs that landed on a target
    repaired: int   # of those, installs over equal-count divergent content


ABSENT: Versions = ((0, 0), (0, 0))  # the versions of an entry a replica lacks


def versions_held(probes: Mapping[str, Probes], uid_text: str,
                  hosts: Iterable[str]) -> Probes:
    """What each of ``hosts`` (all of which answered a
    :meth:`ReplicaIO.diff_many`) holds of the entry: its listed
    versions, :data:`ABSENT` where it listed none."""
    listed = probes.get(uid_text, {})
    return {host: listed.get(host, ABSENT) for host in hosts}


def _verdict(unreachable: RpcError | None,
             unknown: UnknownObject | None) -> Exception:
    """Why a walk left an entry with no replica that served it.

    An unreachable replica may well hold the entry, so its silence
    outranks a reachable peer's ignorance: the retryable outage, and
    "undefined" only when every replica answered and disclaimed it.
    """
    if unreachable is not None:
        return unreachable
    assert unknown is not None
    return unknown


def _behind(versions: Versions, other: Versions) -> bool:
    """Whether ``versions`` lags ``other`` on either half."""
    return versions[0] < other[0] or versions[1] < other[1]


def _diverged(held: Versions, landed: Versions) -> bool:
    """Whether installing ``landed`` over ``held`` replaced, on some
    half, a copy with the same count and other content."""
    return any(mine[0] == theirs[0] and mine < theirs
               for mine, theirs in zip(held, landed))


class ReplicaIO:
    """The one engine behind every replica fan-out, failover, and copy."""

    def __init__(self, rpc: RpcAgent, router: ShardRouter, replication: int,
                 read_policy: str = "primary",
                 sync_rpc: RpcAgent | None = None,
                 sync_suffix: str = "",
                 batcher: Any | None = None,
                 health: Any | None = None,
                 participant_retries: int = 0,
                 retry_rng: Any | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if read_policy not in READ_POLICIES:
            raise ValueError(f"unknown read policy: {read_policy!r} "
                             f"(expected one of {READ_POLICIES})")
        self.rpc = rpc
        self.router = router
        self.replication = replication
        # The sync plane's exit and entry points: maintenance RPCs
        # leave through ``sync_rpc`` (the local node's dedicated sync
        # agent where one exists, else the primary agent) and target
        # ``node + sync_suffix`` -- the peer's replication NIC when the
        # cluster runs two planes, its only NIC otherwise.
        self.sync_rpc = sync_rpc if sync_rpc is not None else rpc
        self.sync_suffix = sync_suffix
        self.read_policy = read_policy
        # A PeerHealthTracker, or None: when attached, every read
        # attempt feeds it (latency on success, timeouts on failure)
        # and the failover walk demotes gray peers to the back of the
        # preference order.  Reads only -- writes must still reach
        # every replica, slow or not.
        self.health = health
        # The owning node's CommitBatcher (or None): handed to every
        # client-plane GroupViewDbClient so the 2PC participant records
        # they enlist ride the batched commit plane.  The sync plane
        # never uses it -- maintenance traffic is already batched at
        # the protocol level (one ``_many`` call per node).
        self.batcher = batcher
        # Re-send budget for the outcome message of the 2PC participants
        # the client-plane clients enlist (see ToldParticipantRecord):
        # bounded seeded-jitter retries so a gray shard's dropped
        # ``commit`` does not leak the action's locks there.
        self.participant_retries = participant_retries
        self.retry_rng = retry_rng
        self.metrics = metrics or MetricsRegistry()
        self.stale_retries = 0  # fenced requests this engine re-routed
        self._spread_cursor = 0
        # Per-node clients, built lazily so a ring grown online keeps
        # working: an unseen owner gets its client on first routing.
        # (Clients for removed nodes linger unused -- the router simply
        # never routes to them again.)
        self._clients: dict[str, GroupViewDbClient] = {}

    # -- client cache --------------------------------------------------------

    def client_for(self, node: str) -> GroupViewDbClient:
        client = self._clients.get(node)
        if client is None:
            client = GroupViewDbClient(
                self.rpc, node, batcher=self.batcher,
                participant_retries=self.participant_retries,
                retry_rng=self.retry_rng)
            self._clients[node] = client
        return client

    def sync_target(self, node: str) -> str:
        """The interface name ``node`` answers sync-plane RPCs on."""
        return node + self.sync_suffix

    # -- the client plane: fenced, action-scoped operations ------------------

    def _count_stale_ring(self) -> None:
        self.stale_retries += 1
        self.metrics.counter("replica_io.stale_ring_retries").increment()

    def _disown_stray(self, client: GroupViewDbClient,
                      *actions: AtomicAction | None) -> None:
        """After a failed op: presume-abort a replica we never enlisted
        (for each action the op would have taken locks under).

        A timed-out request to a live-but-queued replica still executes
        when its FIFO queue drains; the fired abort (queued behind it)
        rolls that stray back.  An *enlisted* replica is left alone --
        its fate belongs to the action's 2PC, whose phase messages queue
        behind the stray the same way.
        """
        for action in actions:
            if action is not None and not client.is_enlisted(action):
                client.abort_stray(action)

    def _single_home(self, view: RingView) -> bool:
        """Whether ``view`` gives every entry exactly one home.

        Then the walk enlists that home eagerly (``call_enlisted``):
        with nowhere to fail over to, a timed-out node must stay a
        participant so the caller's abort still reaches it.  A staged
        transition makes even a replication-1 entry multi-homed.
        """
        return self.replication == 1 and not view.in_transition

    def write(self, action: AtomicAction, uid: Uid | str, method: str,
              *args: Any) -> Generator[Any, Any, None]:
        """Apply a mutating operation to every live replica of ``uid``:
        the one-entry :meth:`_fan_out`."""
        request = (method, *args)
        yield from self._fan_out(action, (uid,), lambda _lot: request)

    def exclude(self, action: AtomicAction,
                exclusions: list[tuple[Uid, list[str]]],
                ) -> Generator[Any, Any, None]:
        """The multi-UID fan-out write (``Exclude``), one request per
        shard.  Grouped tuple-by-tuple (not keyed by UID), so a UID
        appearing twice reaches its shard twice, exactly as the
        single-node client would forward it."""
        def request(lot: tuple[int, ...]) -> tuple[str, list]:
            return "exclude", [(str(exclusions[index][0]),
                                list(exclusions[index][1]))
                               for index in lot]
        yield from self._fan_out(action, [uid for uid, _ in exclusions],
                                 request)

    def _fan_out(self, action: AtomicAction, uids: Sequence[Uid | str],
                 request: Callable[..., tuple]) -> Generator[Any, Any, None]:
        """The fenced fan-out walk behind every naming write.

        Each shard of the view's write sets gets one request for the
        entries (indices into ``uids``) it holds a replica of, built by
        ``request(lot)`` as the operation's ``(method, *args)``.  Lock
        refusals and quiescence violations propagate at once -- those
        verdicts hold wherever the entry lives, and the caller's abort
        releases whatever earlier replicas provisionally applied.  An
        unreachable replica is skipped (its stray presumed aborted) and
        ``UnknownObject`` counts all of the request's entries unreached
        (what it applied of the others stays provisional and resolves
        with the action): it may just be a *stale* replica that missed
        the define, levelled by the next anti-entropy sweep.  So the
        write fails only for an entry no
        replica applied, through :func:`_verdict`.  A fencing rejection
        refreshes the view and re-routes what no replica has executed
        yet; a replica that executed a request, disclaiming or not, is
        never sent it again.
        """
        done: dict[str, tuple[int, ...]] = {}  # node -> entries it executed
        reached: set[int] = set()  # entries some replica applied
        unreachable: RpcError | None = None
        unknown: UnknownObject | None = None
        stale: StaleRingEpoch | None = None
        for _attempt in range(STALE_RETRIES + 1):
            view = self.router.view()
            stale = None
            single = self._single_home(view)
            # Lots are tuples so a one-entry walk builds none per request:
            # ``() + own`` is ``own`` itself, shared by every replica.
            lots: dict[str, tuple[int, ...]] = {}
            for index, uid in enumerate(uids):
                own = (index,)
                for node in view.write_set(uid, self.replication):
                    if index not in done.get(node, ()):
                        lots[node] = lots.get(node, ()) + own
            for node, lot in lots.items():
                client = self.client_for(node)
                call = client.call_enlisted if single else client.call_reached
                try:
                    yield from call(action, *request(lot),
                                    ring_epoch=view.epoch)
                except StaleRingEpoch as exc:
                    self._count_stale_ring()
                    stale = exc
                    break  # re-route the rest through a fresh view
                except RpcError as exc:
                    unreachable = exc
                    self._disown_stray(client, action)
                    # Mid-migration, a skipped replica may be an incoming
                    # owner whose arc the pipeline already confirmed:
                    # tell the ReshardManager to re-confirm before flipping.
                    for index in lot:
                        view.mark_dirty(uids[index])
                    continue
                except UnknownObject as exc:
                    unknown = exc  # stale replica, or truly undefined
                else:
                    reached.update(lot)
                done[node] = done.get(node, ()) + lot
            if stale is None:
                break
        if stale is not None:
            raise stale
        if len(reached) < len(uids):
            raise _verdict(unreachable, unknown)

    def read(self, action: AtomicAction, uid: Uid | str, method: str,
             *args: Any, view_action: AtomicAction | None = None,
             ) -> Generator[Any, Any, Any]:
        """Serve a read from the first live replica in preference order.

        ``view_action`` names a second action the read takes locks
        under: the replica that answers is enlisted for its root as
        well as ``action``'s, or that lock would never be released.

        ``UnknownObject`` fails over like an RPC error -- a stale
        replica missing the entry must not mask peers that hold it; with
        no replica answering, the walk raises through :func:`_verdict`.
        A fencing rejection refreshes the view and restarts the
        (idempotent) failover walk.
        """
        rotation = 0
        if self.read_policy == "spread":
            rotation = self._spread_cursor
            self._spread_cursor += 1
        unreachable: RpcError | None = None
        unknown: UnknownObject | None = None
        stale: StaleRingEpoch | None = None
        for _attempt in range(STALE_RETRIES + 1):
            view = self.router.view()
            stale = None
            single = self._single_home(view)
            order = view.read_order(uid, self.replication, rotation)
            if self.health is not None:
                # Gray-failure demotion: alive-but-slow peers drop to
                # the back of the walk; dark ones still fail over fast.
                order = self.health.reorder(order)
            for node in order:
                client = self.client_for(node)
                call = client.call_enlisted if single else client.call_reached
                started = (self.health.clock()
                           if self.health is not None else 0.0)
                try:
                    result = yield from call(action, method, *args,
                                             ring_epoch=view.epoch,
                                             view_action=view_action)
                except StaleRingEpoch as exc:
                    self._count_stale_ring()
                    stale = exc
                    break
                except RpcError as exc:
                    if self.health is not None:
                        self.health.timeout(node)
                    unreachable = exc
                    self._disown_stray(client, action, view_action)
                    continue
                except UnknownObject as exc:
                    if self.health is not None:
                        self.health.observe(node,
                                            self.health.clock() - started)
                    unknown = exc
                    continue
                if self.health is not None:
                    self.health.observe(node, self.health.clock() - started)
                return result
            if stale is None:
                break
        if stale is not None:
            raise stale
        raise _verdict(unreachable, unknown)

    # -- the leased read plane -----------------------------------------------

    def read_versioned(self, uid: Uid | str,
                       ) -> Generator[Any, Any,
                                      "tuple[EntryCopy, int] | None"]:
        """A lock-free committed snapshot for the client's entry cache.

        Walks the captured view's read order and asks each replica for
        ``read_entry_versioned``: a committed snapshot plus write
        versions taken under server-local probe locks that never span
        the wire, with no 2PC enlistment.  The request goes over the
        *client* service, tagged with the view's fence token -- never
        the sync side door -- so a recovering replica gated out of the
        serving path cannot seed a lease with its pre-crash state, and
        a server past the captured epoch rejects the read outright.
        Returns ``(copy, fence_epoch)`` tagged with the view's epoch,
        or ``None`` when the caller must fall back to the authoritative
        locking read: a replica answered ``"locked"`` (a live action is
        mid-flight -- the locking read will serialize behind it), every
        replica was dark or disclaimed the uid, or the ring's fence
        moved during the read (a snapshot routed by a ring that is
        already history must not seed a lease).

        With a health tracker attached the walk is a staggered hedge: a
        request unanswered for :meth:`PeerHealthTracker.hedge_after
        <repro.naming.peer_health.PeerHealthTracker.hedge_after>` of its
        replica is also sent to the next one, and the first acceptable
        reply wins -- so a fill never waits out the timeout of a
        replica that went dark or gray too recently to be demoted.
        Only this read hedges: it takes no lock and enlists nothing, so
        a losing request leaves nothing behind at its server.  The
        loser's late outcome still feeds the tracker, keeping demotion
        on schedule.  A dark or disclaiming replica's answer sends the
        next request at once.  Without a tracker there is no hedge
        delay, and the walk asks one replica at a time.

        The walk honors the ``spread`` read policy's rotation (lease
        refreshes of a hot arc must not all converge on its primary's
        queue) exactly like the authoritative read.
        """
        rotation = 0
        if self.read_policy == "spread":
            rotation = self._spread_cursor
            self._spread_cursor += 1
        view = self.router.view()
        uid_text = str(uid)
        health = self.health
        untried = view.read_order(uid, self.replication, rotation)
        if health is not None:
            untried = health.reorder(untried)
        untried.reverse()  # popped from the end, in walk order
        legs: list[_Leg] = []  # requests in flight, oldest first
        send = True
        while True:
            if send and untried:
                node = untried.pop()
                legs.append(_Leg(
                    node, health.clock() if health is not None else 0.0,
                    self.client_for(node).read_entry_versioned(
                        uid_text, ring_epoch=view.epoch)))
            if not legs:
                return None  # every replica dark or disclaiming
            newest = legs[-1]
            hedge = (health.hedge_after(newest.node)
                     if health is not None and untried else None)
            leg = yield from self._first_settled(legs, hedge)
            if leg is None:  # the newest request outlived its hedge delay
                self.metrics.counter("replica_io.hedged_reads").increment()
                send = True
                continue
            legs.remove(leg)
            self._feed_health(leg)
            if leg.reply.failed:
                if isinstance(leg.reply.exception(), StaleRingEpoch):
                    self._settle_late(legs)
                    return None  # the ring moved; authoritative path re-routes
                send = True  # dark: ask the next replica now
                continue
            result = leg.reply.result()
            if result == "unknown":
                send = True  # maybe stale-missing; ask the next replica
                continue
            if result == "locked" or self.router.fence_epoch != view.epoch:
                # A live action holds the entry, or the ring moved
                # between dispatch and reply.
                self._settle_late(legs)
                return None
            self.metrics.counter("replica_io.versioned_reads").increment()
            self._settle_late(legs)
            return EntryCopy.from_wire(result), view.epoch

    def _first_settled(self, legs: list[_Leg], hedge: float | None,
                       ) -> Generator[Any, Any, "_Leg | None"]:
        """The first of ``legs`` whose reply settles, or ``None`` once
        the newest has gone ``hedge`` seconds (from its send) without
        one."""
        for leg in legs:
            if leg.reply.done:
                return leg
        wake = Future("read_versioned")
        for leg in legs:
            leg.reply.add_callback(wake.try_resolve)  # resolves with the reply
        timer = None
        if hedge is not None:
            due = legs[-1].sent_at + hedge - self.health.clock()
            timer = self.rpc.scheduler.schedule(max(due, 0.0),
                                                wake.try_resolve)
        try:
            settled = yield wake
        finally:
            if timer is not None:
                timer.cancel()
        return next((leg for leg in legs if leg.reply is settled), None)

    def _feed_health(self, leg: _Leg) -> None:
        """Report one settled read to the tracker: its latency, or a
        timeout (a fencing rejection says nothing about the peer)."""
        if self.health is None:
            return
        if not leg.reply.failed:
            self.health.observe(leg.node, self.health.clock() - leg.sent_at)
        elif not isinstance(leg.reply.exception(), StaleRingEpoch):
            self.health.timeout(leg.node)

    def _settle_late(self, legs: list[_Leg]) -> None:
        """Keep feeding the tracker the requests a returned walk left
        in flight."""
        for leg in legs:
            leg.reply.add_callback(
                lambda _reply, leg=leg: self._feed_health(leg))

    # -- the sync plane: unfenced replica-maintenance protocol ---------------

    def _sync_send(self, local: Mapping[str, Any], node: str, method: str,
                   *args: Any) -> Any:
        """Start one maintenance call on ``node``'s database.

        A direct call, returning its result, when the database is the
        caller's own (named in ``local``); otherwise an RPC over the
        sync plane, returning its future -- the seam that lets one
        engine serve pull (resync into the local database) and push
        (migration) alike.
        """
        db = local.get(node)
        if db is not None:
            return getattr(db, method)(*args)
        return self.sync_rpc.call(self.sync_target(node), SYNC_SERVICE_NAME,
                                  method, *args)

    def _sync_call(self, local: Mapping[str, Any], node: str, method: str,
                   *args: Any) -> Generator[Any, Any, Any]:
        """One maintenance call on ``node``'s database, awaited."""
        reply = self._sync_send(local, node, method, *args)
        if isinstance(reply, Future):
            reply = yield reply
        return reply

    def diff_many(self, requests_by_node: Mapping[str, list[int]],
                  ) -> Generator[Any, Any,
                                 tuple[dict[str, Probes], set[str]]]:
        """Entries in partitions whose digests differ, one round trip
        per node.

        ``requests_by_node`` gives each node its ``diff_partitions``
        argument (a :func:`~repro.naming.group_view_db.diff_request`).
        Returns ``(probes_by_uid, dark_nodes)``:
        ``probes_by_uid[uid][node]`` is ``node``'s (server, state) write
        versions of an entry in a partition that differs; a node that
        listed none of an entry, or went dark, has no versions for it
        (see :func:`versions_held`).  Versions are lock-free lower
        bounds; every install re-checks them under locks.
        """
        probes_by_uid: dict[str, Probes] = {}
        dark: set[str] = set()
        for node, request in requests_by_node.items():
            try:
                flat = yield from self._sync_call({}, node, "diff_partitions",
                                                  request)
            except RpcError:
                dark.add(node)
                continue
            for at in range(0, len(flat), 5):
                probes_by_uid.setdefault(flat[at], {})[node] = (
                    (flat[at + 1], flat[at + 2]), (flat[at + 3], flat[at + 4]))
        return probes_by_uid, dark

    def _read_many(self, local: Mapping[str, Any], node: str,
                   uid_texts: list[str],
                   ) -> Generator[Any, Any, "dict[str, EntryCopy | str] | None"]:
        """Many committed snapshots from one node in one round trip.

        Each entry is snapshotted under its own server-local probe
        locks, taken and released inside the one dispatch (per-entry
        consistency is what matters; cross-entry atomicity never did),
        so no copier lock ever spans the wire.  Returns
        ``{uid: EntryCopy | "locked" | "unknown"}``, or ``None`` when
        the node is dark.
        """
        try:
            results = yield from self._sync_call(
                local, node, "read_entry_versioned_many", uid_texts)
        except RpcError:
            return None
        return {uid_text: (result if isinstance(result, str)
                           else EntryCopy.from_wire(result))
                for uid_text, result in zip(uid_texts, results)}

    def _install_many(self, local: Mapping[str, Any],
                      installs: list[tuple[str, str, EntryCopy]],
                      ) -> Generator[Any, Any, "list[bool | None]"]:
        """Land snapshots through their targets' lock-guarded installs.

        ``installs`` lists ``(target, uid, copy)``.  Every request is
        sent before any reply is awaited, so a batch costs one round
        trip, not one per install.  Returns, per install, ``True``
        installed, ``False`` already fresh, ``None`` when a live action
        there holds the entry or the target went dark.
        """
        sent = [self._sync_send(local, target, "guarded_install_entry",
                                uid_text, copy.hosts, copy.uses, copy.view,
                                copy.versions)
                for target, uid_text, copy in installs]
        landed: list[bool | None] = []
        for reply in sent:
            if isinstance(reply, Future):
                try:
                    reply = yield reply
                except RpcError:
                    reply = None
            landed.append(reply)
        return landed

    def converge_entry(self, uid_text: str, sources: Probes, targets: Probes,
                       local: Mapping[str, Any] | None = None,
                       ) -> Generator[Any, Any, "Converged"]:
        """:meth:`converge` for one entry."""
        results = yield from self.converge({uid_text: (sources, targets)},
                                           local)
        return results[uid_text]

    def converge(self, entries: Entries, local: Mapping[str, Any] | None = None,
                 ) -> Generator[Any, Any, dict[str, "Converged"]]:
        """Bring every lagging target level with the freshest sources.

        ``entries`` maps each uid to ``(sources, targets)``, both
        mapping replica names to probed (server, state) write versions
        (see :meth:`diff_many`); they may overlap -- a replica is never
        "behind" itself.  Every source strictly ahead of some target
        answers one batched snapshot read covering all such entries,
        and each snapshot is pushed to each target still behind it;
        consulting more than one source matters because an equal-version
        peer may simply share a target's staleness, and the two version
        halves' maxima can live on different replicas (the version-gated
        install merges them per half).  Replicas named in ``local`` are
        read and installed by direct call.  A target at a source's count
        with other content is behind it whenever the source's digest is
        greater: its install is counted in ``repaired`` as well as in
        ``installed`` (and metered as ``replica_io.divergence_repairs``).

        Returns one :class:`Converged` per uid, with outcome:

        - ``"clean"`` -- no target was behind any source: nothing to do
          (a migration treats this as the arc's convergence proof);
        - ``"copied"`` -- at least one install landed;
        - ``"settled"`` -- targets looked behind at probe time but every
          install was a version-gated no-op (they caught up mid-pass);
        - ``"deferred"`` -- no source answered, or a lock, a dark
          replica, or a still-behind target got in the way; the caller
          retries a later pass;
        - ``"unknown"`` -- every source disclaimed the entry under
          locks (a define that aborted after enumeration).
        """
        local = local or {}
        # What each replica is known to hold: the probes, moved forward
        # by every install that lands.
        known = {uid_text: {**targets, **sources}
                 for uid_text, (sources, targets) in entries.items()}
        best: dict[str, Versions] = {}
        lagging: set[str] = set()
        ahead_by_source: dict[str, list[str]] = {}
        for uid_text, (sources, targets) in entries.items():
            if not sources:
                continue  # nothing reachable to copy from
            best[uid_text] = (max(sv for sv, _ in sources.values()),
                              max(st for _, st in sources.values()))
            for source, versions in sources.items():
                if any(name != source and _behind(probed, versions)
                       for name, probed in targets.items()):
                    lagging.add(uid_text)
                    ahead_by_source.setdefault(source, []).append(uid_text)

        installed = dict.fromkeys(entries, 0)
        repaired = dict.fromkeys(entries, 0)
        deferred = {uid_text for uid_text in entries if uid_text not in best}
        disclaimed: dict[str, int] = {}
        for source, uids in ahead_by_source.items():
            # An earlier source may already have pulled a target level
            # with this one; re-check before paying the fetch.
            wanted = {}
            for uid_text in uids:
                sources, targets = entries[uid_text]
                names = [name for name in targets if name != source
                         and _behind(known[uid_text][name], sources[source])]
                if names:
                    wanted[uid_text] = names
            if not wanted:
                continue
            copies = yield from self._read_many(local, source, list(wanted))
            if copies is None:
                deferred.update(wanted)  # a known-fresher source went dark
                continue
            installs = []
            for uid_text, names in wanted.items():
                copy = copies[uid_text]
                if copy == "locked":
                    deferred.add(uid_text)  # busy entry; next pass retries
                    continue
                if copy == "unknown":
                    # Aborted define, or only the peers hold it.
                    disclaimed[uid_text] = disclaimed.get(uid_text, 0) + 1
                    continue
                installs.extend((name, uid_text, copy) for name in names)
            landed_all = yield from self._install_many(local, installs)
            for (name, uid_text, copy), landed in zip(installs, landed_all):
                if landed is None:
                    deferred.add(uid_text)
                    continue
                held = known[uid_text][name]
                if landed:
                    installed[uid_text] += 1
                    self.metrics.counter(
                        "replica_io.entries_installed").increment()
                    if _diverged(held, copy.versions):
                        repaired[uid_text] += 1
                        self.metrics.counter(
                            "replica_io.divergence_repairs").increment()
                known[uid_text][name] = (max(held[0], copy.versions[0]),
                                         max(held[1], copy.versions[1]))

        results: dict[str, Converged] = {}
        for uid_text, (sources, targets) in entries.items():
            if uid_text in deferred:
                outcome = "deferred"
            elif disclaimed.get(uid_text) == len(sources):
                outcome = "unknown"
            elif any(_behind(known[uid_text][name], best[uid_text])
                     for name in targets):
                # An install raced a live action, or lost to a fresher
                # source that then went dark.
                outcome = "deferred"
            else:
                outcome = ("clean" if uid_text not in lagging
                           else "copied" if installed[uid_text] else "settled")
            results[uid_text] = Converged(outcome, installed[uid_text],
                                          repaired[uid_text])
        return results
