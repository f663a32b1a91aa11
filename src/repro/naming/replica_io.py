"""The replica data-plane engine for the sharded name service.

PRs 1-3 grew four consumers of the same replica protocol -- the
sharded client's fan-out writes and failover reads, the shard-resync
daemon's catch-up copies, the online-reshard arc migration, and
read-repair -- each carrying its own copy of the fan-out / failover /
probe-and-install loops.  :class:`ReplicaIO` is the single engine they
all call now, split along the two planes the protocol actually has:

**Client plane** (action-scoped, epoch-fenced).  Every operation
captures one :class:`~repro.naming.shard_router.RingView` and tags its
RPCs with the view's fence token:

- :meth:`write` fans a mutating operation out to every live replica of
  the view's write set, enlisting each *reached* shard as its own
  late 2PC participant of the calling action (``call_reached``), and
  collapsing to eager single-home enlistment when the entry has one
  home and no transition is staged;
- :meth:`read` serves from the first live replica of the view's read
  order, failing over past dark or disclaiming replicas and reporting
  observed staleness to the attached read-repairer;
- :meth:`exclude` is the multi-UID fan-out write.

A replica answering :class:`~repro.net.errors.StaleRingEpoch` proves
the membership moved past the captured view *before the request
dispatched*: nothing executed there, so the engine refreshes the view
and retries against the current owners -- skipping replicas the
operation already applied on, which stay enlisted participants.  This
fenced retry is what replaced the reshard pipeline's settle interval:
a write routed by a pre-transition view either executed before the
staging or is rejected and re-routed through the dual-ownership union;
there is no in-between window for it to land on the wrong owners.

**Sync plane** (replica maintenance, unfenced).  Resync, migration,
and repair keep replicas convergent *across* epochs -- their traffic
must flow even to hosts the live ring does not own yet (incoming
owners mid-copy) or no longer owns (sources being drained), so it is
deliberately not fenced; per-entry write versions carry correctness
instead:

- :meth:`probe_versions` -- lock-free per-replica version probes;
- :meth:`fetch_copy` -- one committed snapshot under a real atomic
  action (read locks, never a torn write), versions read while those
  locks are held;
- :meth:`converge_entry` -- the one implementation of
  "push committed snapshots from fresher sources through lock-guarded,
  version-gated ``guarded_install_entry`` on every lagging target",
  multi-source (the two version halves' maxima may live on different
  replicas) and multi-target (a migration seeds several movers at
  once).  Targets may be remote (installed over the sync RPC) or local
  (a resync installing into its own database via the ``install``
  hook).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

from repro.actions.action import AtomicAction, abort_on_failure
from repro.actions.errors import LockRefused, PromotionRefused
from repro.naming.db_client import GroupViewDbClient
from repro.naming.errors import UnknownObject
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.naming.shard_router import ShardRouter
from repro.net.errors import RpcError, StaleRingEpoch
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

READ_POLICIES = ("primary", "spread")

# How many StaleRingEpoch refresh-and-retry rounds one operation will
# absorb before giving up.  Each retry proves the membership moved
# mid-operation; rings do not flip often enough for a live system to
# exhaust this, so hitting the cap indicates a routing storm and the
# operation fails with the (retryable) fencing error.
DEFAULT_STALE_RETRIES = 4


@dataclass(frozen=True)
class EntryCopy:
    """One entry's committed state, version-stamped, ready to install."""

    hosts: list[str]
    uses: dict[str, dict[str, int]]
    view: list[str]
    versions: tuple[int, int]
    # The coherence plane's verdict for the entry: "pull" (lease+TTL)
    # or "push" (register with the owner; it multicasts invalidations).
    mode: str = "pull"
    # The entry's per-writer vector clock, or None when the source
    # predates clocks (a 4/5-tuple wire peer).  Divergence repair
    # carries the merged clock here on its force-installs.
    vclock: dict[str, int] | None = None

    @classmethod
    def from_wire(cls, result: Any) -> "EntryCopy":
        """Decode one ``read_entry_versioned`` wire tuple (the one
        implementation every versioned-read consumer shares).

        Accepts the 4-tuple (pre-coherence peers, and paths with no
        mode to report), the 5-tuple carrying the entry's coherence
        mode, and the 6-tuple carrying the vector clock too.
        """
        vclock = None
        if len(result) == 6:
            hosts, uses, view, versions, mode, vclock = result
        elif len(result) == 5:
            hosts, uses, view, versions, mode = result
        else:
            hosts, uses, view, versions = result
            mode = "pull"
        return cls(list(hosts),
                   {host: dict(counters) for host, counters in uses.items()},
                   list(view), tuple(versions), mode,
                   dict(vclock) if vclock is not None else None)


def fetch_entry_copy(rpc: RpcAgent, client: GroupViewDbClient, uid_text: str,
                     node: str = "",
                     ) -> Generator[Any, Any, "EntryCopy | str"]:
    """Read one committed entry from ``client``'s shard for replication.

    The delicate part every copier must get right, implemented once:
    both snapshot halves are read under a real atomic action (the read
    locks guarantee a consistent committed view, never a torn write),
    the write versions are read lock-free *while those locks are still
    held*, and the read-only action is then committed (prepare releases
    the locks).  Returns an :class:`EntryCopy`, or one of the outcome
    tags ``"locked"`` (a live action holds the entry -- retry later),
    ``"unknown"`` (this shard disclaims the uid), or ``"unreachable"``
    (the shard went dark mid-read).
    """
    uid = Uid.parse(uid_text)
    action = AtomicAction(node=node)
    try:
        snapshot = yield from client.get_server_with_uses(action, uid)
        view = yield from client.get_view(action, uid)
        versions = yield rpc.call(client.db_node, client.service,
                                  "entry_versions", uid_text)
        vclock = yield rpc.call(client.db_node, client.service,
                                "entry_clock", uid_text)
    except (LockRefused, PromotionRefused):
        yield from action.abort()
        return "locked"
    except UnknownObject:
        yield from action.abort()
        return "unknown"
    except RpcError:
        yield from action.abort()
        return "unreachable"
    except BaseException:
        # Abort-on-failure: the copy probe is a top-level action of its
        # own; an unexpected error or a process kill must not leave its
        # read locks wedging the source entry.
        yield from abort_on_failure(action)
        raise
    yield from action.commit()
    return EntryCopy(list(snapshot.hosts),
                     {host: dict(counters)
                      for host, counters in snapshot.uses.items()},
                     list(view), tuple(versions), vclock=dict(vclock))


Installer = Callable[[str, str, EntryCopy], Any]


class ReplicaIO:
    """The one engine behind every replica fan-out, failover, and copy."""

    def __init__(self, rpc: RpcAgent, router: ShardRouter, replication: int,
                 service: str = SERVICE_NAME,
                 sync_service: str = SYNC_SERVICE_NAME,
                 read_policy: str = "primary",
                 repair: Any | None = None,
                 max_stale_retries: int = DEFAULT_STALE_RETRIES,
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
        self.service = service
        self.sync_service = sync_service
        # The sync plane's exit and entry points: maintenance RPCs
        # leave through ``sync_rpc`` (the local node's dedicated sync
        # agent where one exists, else the primary agent) and target
        # ``node + sync_suffix`` -- the peer's replication NIC when the
        # cluster runs two planes, its only NIC otherwise.
        self.sync_rpc = sync_rpc if sync_rpc is not None else rpc
        self.sync_suffix = sync_suffix
        self.read_policy = read_policy
        self.repair = repair  # a ReadRepairer, or None
        # A PeerHealthTracker, or None: when attached, every read
        # attempt feeds it (latency on success, timeouts on failure)
        # and the failover walk demotes gray peers to the back of the
        # preference order.  Reads only -- writes must still reach
        # every replica, slow or not.
        self.health = health
        # The owning node's CommitBatcher (or None): handed to every
        # client-plane GroupViewDbClient so the 2PC participant records
        # they enlist ride the batched commit plane.  Sync-plane
        # clients never get it -- maintenance traffic is already
        # batched at the protocol level (probe_many/get_many).
        self.batcher = batcher
        # Prepare-retry policy for the 2PC participants the client-plane
        # clients enlist (see RemoteParticipantRecord): bounded seeded-
        # jitter retries so a gray shard's dropped prepare does not
        # instantly doom the action.  0 retries = baseline fail-fast.
        self.participant_retries = participant_retries
        self.retry_rng = retry_rng
        self.max_stale_retries = max_stale_retries
        self.metrics = metrics or MetricsRegistry()
        self.stale_retries = 0  # fenced requests this engine re-routed
        self._spread_cursor = 0
        # Per-(node, service) clients, built lazily so a ring grown
        # online keeps working: an unseen owner gets its client on
        # first routing.  (Clients for removed nodes linger unused --
        # the router simply never routes to them again.)
        self._clients: dict[tuple[str, str], GroupViewDbClient] = {}

    # -- client cache --------------------------------------------------------

    def client_for(self, node: str,
                   service: str | None = None) -> GroupViewDbClient:
        key = (node, service or self.service)
        client = self._clients.get(key)
        if client is None:
            client = GroupViewDbClient(
                self.rpc, node, service=key[1], batcher=self.batcher,
                participant_retries=self.participant_retries,
                retry_rng=self.retry_rng)
            self._clients[key] = client
        return client

    def sync_target(self, node: str) -> str:
        """The interface name ``node`` answers sync-plane RPCs on."""
        return node + self.sync_suffix

    def sync_client_for(self, node: str) -> GroupViewDbClient:
        key = (self.sync_target(node), self.sync_service)
        client = self._clients.get(key)
        if client is None:
            client = GroupViewDbClient(self.sync_rpc, key[0],
                                       service=self.sync_service)
            self._clients[key] = client
        return client

    def clients_for_service(self, service: str | None = None,
                            ) -> dict[str, GroupViewDbClient]:
        """The cached per-node clients of one service (default: client
        plane), keyed by node -- an inspection surface; routing always
        goes through :meth:`client_for`."""
        wanted = service or self.service
        return {node: client
                for (node, client_service), client in self._clients.items()
                if client_service == wanted}

    # -- the client plane: fenced, action-scoped operations ------------------

    def _note_stale(self) -> None:
        self.stale_retries += 1
        self.metrics.counter("replica_io.stale_ring_retries").increment()

    def _disown_stray(self, client: GroupViewDbClient,
                      action: AtomicAction) -> None:
        """After a failed op: presume-abort a replica we never enlisted.

        A timed-out request to a live-but-queued replica still executes
        when its FIFO queue drains; the fired abort (queued behind it)
        rolls that stray back.  An *enlisted* replica is left alone --
        its fate belongs to the action's 2PC (prepare will reach it, or
        veto the action if it cannot).
        """
        if not client.is_enlisted(action):
            client.abort_stray(action)

    def write(self, action: AtomicAction, uid: Uid | str, method: str,
              *args: Any) -> Generator[Any, Any, Any]:
        """Apply a mutating operation to every live replica of ``uid``.

        Lock refusals and quiescence violations propagate immediately
        -- those verdicts hold wherever the entry lives, and the
        caller's abort releases whatever earlier replicas provisionally
        applied.  ``UnknownObject``, though, may just mean a *stale*
        replica (one that missed the define via a disowned stray
        write): it is only the verdict when no replica accepts; a
        replica claiming ignorance while a peer applies the write is
        skipped like a crashed one (enlisted for lock cleanup, repaired
        by the next anti-entropy sweep).  RPC failures skip the
        replica; only a fully-unreachable replica set fails the write.
        A fencing rejection refreshes the view and retries the replicas
        not yet applied -- the rejecting server executed nothing.
        """
        applied: set[str] = set()
        result: Any = None
        reached = False
        unreachable: RpcError | None = None
        unknown: UnknownObject | None = None
        stale: StaleRingEpoch | None = None
        for _attempt in range(self.max_stale_retries + 1):
            view = self.router.view()
            stale = None
            if (self.replication == 1 and not view.in_transition
                    and not applied):
                # Single home: enlist eagerly, exactly as PR 1's client
                # did -- with nowhere to fail over to, a timed-out shard
                # must stay a participant so the caller's abort still
                # reaches it.  (A transition makes even a replication=1
                # entry multi-homed, so it takes the fan-out path.)
                client = self.client_for(view.primary(uid))
                try:
                    return (yield from client.call_enlisted(
                        action, method, *args, ring_epoch=view.epoch))
                except StaleRingEpoch as exc:
                    self._note_stale()
                    stale = exc
                    continue
            for node in view.write_set(uid, self.replication):
                if node in applied:
                    continue
                client = self.client_for(node)
                try:
                    result = yield from client.call_reached(
                        action, method, *args, ring_epoch=view.epoch)
                    reached = True
                    applied.add(node)
                except StaleRingEpoch as exc:
                    self._note_stale()
                    stale = exc
                    break  # re-route the rest through a fresh view
                except RpcError as exc:
                    unreachable = exc
                    self._disown_stray(client, action)
                    # Mid-migration, a skipped replica may be an
                    # incoming owner whose arc the pipeline already
                    # confirmed: tell the ReshardManager to re-confirm
                    # before flipping.
                    view.mark_dirty(uid)
                except UnknownObject as exc:
                    unknown = exc  # stale replica, or truly undefined
            if stale is None:
                break
        if stale is not None:
            raise stale
        if reached and unknown is not None and self.repair is not None:
            # A replica disclaimed an entry its peers accept: it is
            # stale-missing; queue a lock-guarded re-seed.
            self.repair.note_stale(uid)
        if not reached:
            # An unreachable replica may well hold the entry, so its
            # silence outranks a reachable peer's ignorance: report the
            # retryable outage, and "undefined" only when every replica
            # answered and disclaimed the uid.
            if unreachable is not None:
                raise unreachable
            assert unknown is not None
            raise unknown
        return result

    def read(self, action: AtomicAction, uid: Uid | str, method: str,
             *args: Any) -> Generator[Any, Any, Any]:
        """Serve a read from the first live replica in preference order.

        ``UnknownObject`` fails over like an RPC error -- a stale
        replica missing the entry must not mask peers that hold it --
        and is raised only when every replica answered and disclaimed
        the uid (an unreachable replica may hold the entry, so its
        outage outranks a peer's ignorance).  A fencing rejection
        refreshes the view and restarts the (idempotent) failover walk.
        """
        rotation = 0
        if self.read_policy == "spread":
            rotation = self._spread_cursor
            self._spread_cursor += 1
        unreachable: RpcError | None = None
        unknown: UnknownObject | None = None
        stale: StaleRingEpoch | None = None
        for _attempt in range(self.max_stale_retries + 1):
            view = self.router.view()
            stale = None
            if self.replication == 1 and not view.in_transition:
                client = self.client_for(view.primary(uid))
                try:
                    return (yield from client.call_enlisted(
                        action, method, *args, ring_epoch=view.epoch))
                except StaleRingEpoch as exc:
                    self._note_stale()
                    stale = exc
                    continue
            order = view.read_order(uid, self.replication, rotation)
            if self.health is not None:
                # Gray-failure demotion: alive-but-slow peers drop to
                # the back of the walk; dark ones still fail over fast.
                order = self.health.reorder(order)
            for node in order:
                client = self.client_for(node)
                started = (self.health.clock()
                           if self.health is not None else 0.0)
                try:
                    result = yield from client.call_reached(
                        action, method, *args, ring_epoch=view.epoch)
                except StaleRingEpoch as exc:
                    self._note_stale()
                    stale = exc
                    break
                except RpcError as exc:
                    if self.health is not None:
                        self.health.timeout(node)
                    unreachable = exc
                    self._disown_stray(client, action)
                    continue
                except UnknownObject as exc:
                    if self.health is not None:
                        self.health.observe(node,
                                            self.health.clock() - started)
                    unknown = exc
                    continue
                if self.health is not None:
                    self.health.observe(node, self.health.clock() - started)
                if self.repair is not None:
                    if unknown is not None:
                        # We stepped past a replica disclaiming the
                        # entry -- on this walk or one a fence retry
                        # restarted: it is stale-missing; queue a
                        # lock-guarded re-seed.
                        self.repair.note_stale(uid)
                    else:
                        # Routine replicated read: sampled version
                        # verify (no-op unless verification is on).
                        self.repair.observe(uid)
                return result
            if stale is None:
                break
        if stale is not None:
            raise stale
        if unreachable is not None:
            raise unreachable
        assert unknown is not None
        raise unknown

    def exclude(self, action: AtomicAction,
                exclusions: list[tuple[Uid, list[str]]],
                ) -> Generator[Any, Any, None]:
        """The multi-UID fan-out write (``Exclude``), grouped per shard.

        Grouped tuple-by-tuple (not keyed by UID) so a UID appearing
        twice reaches its shard twice, exactly as the single-node
        client would forward it.  With replication every tuple goes to
        each replica of its UID.  Like the per-UID writes, one stale
        replica's ``UnknownObject`` must not veto the exclusion -- the
        whole shard group is conservatively counted unreached (its
        pre-error exclusions stay provisional and resolve with the
        action) and the verdict stands only when some UID reached no
        replica at all, with an outage outranking ignorance.  Fencing
        rejections re-group the not-yet-applied tuples under a fresh
        view; a shard that already executed a group is never re-sent it.
        """
        applied: dict[str, set[int]] = {}
        reached: set[str] = set()
        unreachable: RpcError | None = None
        unknown: UnknownObject | None = None
        stale: StaleRingEpoch | None = None
        for _attempt in range(self.max_stale_retries + 1):
            view = self.router.view()
            stale = None
            eager = self.replication == 1 and not view.in_transition
            by_shard: dict[str, list[int]] = {}
            for index, (uid, _hosts) in enumerate(exclusions):
                owners = ([view.primary(uid)] if eager
                          else view.write_set(uid, self.replication))
                for node in owners:
                    if index not in applied.get(node, set()):
                        by_shard.setdefault(node, []).append(index)
            for node, indices in by_shard.items():
                client = self.client_for(node)
                lots = [exclusions[i] for i in indices]
                try:
                    if eager:
                        yield from client.exclude(action, lots,
                                                  ring_epoch=view.epoch)
                    else:
                        wire = [(str(uid), list(hosts))
                                for uid, hosts in lots]
                        yield from client.call_reached(
                            action, "exclude", wire, ring_epoch=view.epoch)
                except StaleRingEpoch as exc:
                    self._note_stale()
                    stale = exc
                    break
                except RpcError as exc:
                    unreachable = exc
                    self._disown_stray(client, action)
                    for uid, _hosts in lots:
                        view.mark_dirty(uid)  # see write(): re-confirm arcs
                    continue
                except UnknownObject as exc:
                    # The group executed (and partially applied) on the
                    # shard; never re-send it, but count its UIDs
                    # unreached so the verdict stays conservative.
                    unknown = exc
                    applied.setdefault(node, set()).update(indices)
                    continue
                applied.setdefault(node, set()).update(indices)
                reached.update(str(exclusions[i][0]) for i in indices)
            if stale is None:
                break
        if stale is not None:
            raise stale
        missed = [uid for uid, _ in exclusions if str(uid) not in reached]
        if missed:
            if unreachable is not None:
                raise unreachable
            assert unknown is not None
            raise unknown

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

        The walk honors the ``spread`` read policy's rotation (lease
        refreshes of a hot arc must not all converge on its primary's
        queue) and reports to the attached read-repairer exactly like
        the authoritative read: a disclaiming replica stepped past is
        stale-missing evidence, a served read is a routine observation.
        """
        rotation = 0
        if self.read_policy == "spread":
            rotation = self._spread_cursor
            self._spread_cursor += 1
        view = self.router.view()
        uid_text = str(uid)
        unknown_seen = False
        order = view.read_order(uid, self.replication, rotation)
        if self.health is not None:
            order = self.health.reorder(order)
        for node in order:
            client = self.client_for(node)
            started = (self.health.clock()
                       if self.health is not None else 0.0)
            try:
                result = yield from client.read_entry_versioned(
                    uid_text, ring_epoch=view.epoch)
            except StaleRingEpoch:
                return None  # the ring moved; authoritative path re-routes
            except RpcError:
                if self.health is not None:
                    self.health.timeout(node)
                continue
            if self.health is not None:
                self.health.observe(node, self.health.clock() - started)
            if result == "locked":
                return None
            if result == "unknown":
                unknown_seen = True  # maybe stale-missing; try the next
                continue
            if self.router.fence_epoch != view.epoch:
                return None  # the ring moved between dispatch and reply
            self.metrics.counter("replica_io.versioned_reads").increment()
            if self.repair is not None:
                if unknown_seen:
                    self.repair.note_stale(uid)
                else:
                    self.repair.observe(uid)
            return EntryCopy.from_wire(result), view.epoch
        return None

    # -- the sync plane: unfenced replica-maintenance protocol ---------------

    def probe_many(self, node: str, uid_texts: list[str],
                   ) -> Generator[Any, Any,
                                  "dict[str, tuple[int, int]] | None"]:
        """One node's write versions for many entries in one RPC.

        The batched form of :meth:`probe_versions`, turned sideways:
        one *node*, many uids -- anti-entropy and resync sweeps probe a
        whole shared arc per peer round trip instead of per entry.
        Returns ``{uid: (sv, st)}``, or ``None`` when the node is dark.
        """
        if not uid_texts:
            return {}
        client = self.sync_client_for(node)
        try:
            versions = yield from client.entry_versions_many(uid_texts)
        except RpcError:
            return None
        return {uid_text: tuple(entry)
                for uid_text, entry in zip(uid_texts, versions)}

    def get_many(self, node: str, uid_texts: list[str],
                 ) -> Generator[Any, Any, "dict[str, EntryCopy | str] | None"]:
        """Many committed snapshots from one node in one RPC.

        The batched form of :meth:`fetch_copy` for bulk catch-up: each
        entry is still snapshotted under its own server-local probe
        locks (per-entry consistency is what matters; cross-entry
        atomicity never did), but a resync copying a crashed host's
        whole arc pays one round trip per source instead of one per
        entry.  Returns ``{uid: EntryCopy | "locked" | "unknown"}``, or
        ``None`` when the node is dark.
        """
        if not uid_texts:
            return {}
        client = self.sync_client_for(node)
        try:
            results = yield from client.read_entry_versioned_many(uid_texts)
        except RpcError:
            return None
        copies: dict[str, EntryCopy | str] = {}
        for uid_text, result in zip(uid_texts, results):
            if result in ("locked", "unknown"):
                copies[uid_text] = result
                continue
            copies[uid_text] = EntryCopy.from_wire(result)
        return copies

    def collect_uids(self, nodes: Iterable[str],
                     ) -> Generator[Any, Any, tuple[set[str], int]]:
        """Union the ``list_uids`` of every reachable node.

        Returns the universe plus how many nodes answered, so callers
        can distinguish "empty ring" from "dark ring".
        """
        universe: set[str] = set()
        answered = 0
        for node in nodes:
            try:
                uids = yield self.sync_rpc.call(self.sync_target(node),
                                                self.sync_service, "list_uids")
            except RpcError:
                continue
            answered += 1
            universe.update(uids)
        return universe, answered

    def probe_versions(self, uid_text: str, nodes: Iterable[str],
                       service: str | None = None,
                       ring_epoch: int | None = None,
                       ) -> Generator[Any, Any,
                                      tuple[dict[str, tuple[int, int]],
                                            list[str]]]:
        """Lock-free per-replica version probes for one entry.

        Returns ``(probes, dark)``: the (server, state) write versions
        of every node that answered, and the nodes that did not.
        ``service`` defaults to the sync plane (replica maintenance
        must reach gated hosts); lease validation passes the *client*
        service instead, so a replica held out of the serving path
        cannot certify a lease with stale versions -- and tags the
        probe with its view's ``ring_epoch``, so a replica the ring has
        moved past (e.g. a drained owner still holding the pre-move
        entry before GC) is fenced into the dark set instead of
        certifying versions for an arc it no longer serves.
        """
        probes: dict[str, tuple[int, int]] = {}
        dark: list[str] = []
        for node in nodes:
            try:
                if service is None:
                    # Maintenance probe: ride the sync plane end to end.
                    versions = yield self.sync_rpc.call(
                        self.sync_target(node), self.sync_service,
                        "entry_versions", uid_text, ring_epoch=ring_epoch)
                else:
                    # Explicit (client) service: stay on the primary
                    # NIC, where the fence and the gate live.
                    versions = yield self.rpc.call(
                        node, service, "entry_versions", uid_text,
                        ring_epoch=ring_epoch)
            except RpcError:  # includes StaleRingEpoch fencing rejections
                dark.append(node)
                continue
            probes[node] = tuple(versions)
        return probes, dark

    def probe_many_grouped(self, uids_by_node: dict[str, list[str]],
                           ) -> Generator[Any, Any,
                                          tuple[dict[str,
                                                     dict[str,
                                                          tuple[int, int]]],
                                                list[str]]]:
        """Pivot batched probes: one :meth:`probe_many` per node, results
        re-grouped per uid.

        The shared scaffold of every batched consumer (anti-entropy,
        resync, the read-repair drain): given the uids each node should
        answer for, returns ``(probes_by_uid, dark_nodes)`` where
        ``probes_by_uid[uid][node]`` holds the node's (server, state)
        versions -- a uid absent from a dark node's map simply has no
        entry for it.
        """
        probes_by_uid: dict[str, dict[str, tuple[int, int]]] = {}
        for uids in uids_by_node.values():
            for uid_text in uids:
                probes_by_uid.setdefault(uid_text, {})
        dark: list[str] = []
        for node, uids in uids_by_node.items():
            probed = yield from self.probe_many(node, uids)
            if probed is None:
                dark.append(node)
                continue
            for uid_text, versions in probed.items():
                probes_by_uid[uid_text][node] = versions
        return probes_by_uid, dark

    def fetch_copy(self, source: str, uid_text: str,
                   ) -> Generator[Any, Any, "EntryCopy | str"]:
        """One committed, version-stamped snapshot from ``source``."""
        return (yield from fetch_entry_copy(
            self.sync_rpc, self.sync_client_for(source), uid_text,
            node=self.sync_rpc.name))

    def install_remote(self, target: str, uid_text: str, copy: EntryCopy,
                       force: bool = False,
                       ) -> Generator[Any, Any, "bool | None | str"]:
        """Push one snapshot through a remote lock-guarded install.

        ``force`` bypasses the scalar version gate -- only divergence
        repair uses it, to overwrite an equal-version loser with the
        vector-clock winner.  Returns the database's verdict (``True``
        installed, ``False`` already fresh, ``None`` locked by a live
        action) or ``"unreachable"`` when the target went dark.
        """
        try:
            installed = yield self.sync_rpc.call(
                self.sync_target(target), self.sync_service,
                "guarded_install_entry", uid_text,
                copy.hosts, copy.uses, copy.view, copy.versions,
                copy.vclock, force)
        except RpcError:
            return "unreachable"
        return installed

    def converge_entry(self, uid_text: str,
                       sources: dict[str, tuple[int, int]],
                       targets: dict[str, tuple[int, int]],
                       install: Installer | None = None,
                       ) -> Generator[Any, Any, tuple[str, int]]:
        """Bring every lagging target level with the freshest sources.

        ``sources`` and ``targets`` map replica names to probed
        (server, state) write versions; they may overlap -- a replica
        is never "behind" itself.  Snapshots are fetched from sources
        in descending version order and pushed to each target still
        behind that source; consulting more than one source matters
        because the two version halves' maxima can live on different
        replicas, and the version-gated install merges them per half.
        ``install`` overrides how a target takes a snapshot (a resync
        installing into its own database); by default targets are
        remote and installed over the sync RPC.

        Returns ``(outcome, installed_count)`` with outcome one of:

        - ``"clean"`` -- no target was behind any source: nothing to do
          (a migration treats this as the arc's convergence proof);
        - ``"copied"`` -- at least one install landed;
        - ``"settled"`` -- targets looked behind at probe time but every
          install was a version-gated no-op (they caught up mid-pass);
        - ``"deferred"`` -- a lock, a dark replica, or a still-behind
          target got in the way; the caller retries a later pass;
        - ``"unknown"`` -- every consulted source disclaimed the entry
          under locks (a define that aborted after enumeration).

        When every target is remote (no ``install`` override), a
        *vector-clock phase* follows scalar convergence: replicas
        sitting at the scalar maximum are probed for their per-writer
        clocks, and a mismatch -- equal versions, different commit
        histories, the partial-partition signature -- is repaired by
        force-installing the clock winner's snapshot (with the merged
        clock) on every divergent replica.  Local-install callers
        (shard resync) run their own clock reconciliation instead.
        """
        clock_phase = install is None
        install = install or self.install_remote
        if not sources:
            return "deferred", 0  # nothing reachable to copy from
        best = (max(sv for sv, _ in sources.values()),
                max(st for _, st in sources.values()))
        remaining = {name: versions for name, versions in targets.items()
                     if versions[0] < best[0] or versions[1] < best[1]}
        if not remaining:
            return (yield from self._finish_converge(
                uid_text, sources, targets, best, "clean", 0, clock_phase))
        installed_count = 0
        unknown_everywhere = True
        for source, (source_sv, source_st) in sorted(
                sources.items(), key=lambda item: (-item[1][0], -item[1][1])):
            names = [name for name, (sv, st) in remaining.items()
                     if name != source and (sv < source_sv or st < source_st)]
            if not names:
                unknown_everywhere = False
                continue
            copy = yield from self.fetch_copy(source, uid_text)
            if copy == "locked":
                return "deferred", installed_count
            if copy == "unknown":
                continue  # aborted define, or only the peers hold it
            if copy == "unreachable":
                return "deferred", installed_count
            unknown_everywhere = False
            for name in names:
                outcome = install(name, uid_text, copy)
                if hasattr(outcome, "send"):  # a generator-based installer
                    outcome = yield from outcome
                if outcome == "unreachable" or outcome is None:
                    # Target dark, or a live local action holds the
                    # entry: the snapshot must not be forced past it.
                    return "deferred", installed_count
                if outcome:
                    installed_count += 1
                    self.metrics.counter(
                        "replica_io.entries_installed").increment()
                old_sv, old_st = remaining[name]
                remaining[name] = (max(old_sv, copy.versions[0]),
                                   max(old_st, copy.versions[1]))
        if unknown_everywhere:
            return "unknown", installed_count
        if any(sv < best[0] or st < best[1]
               for sv, st in remaining.values()):
            return "deferred", installed_count
        outcome = "copied" if installed_count else "settled"
        return (yield from self._finish_converge(
            uid_text, sources, targets, best, outcome, installed_count,
            clock_phase))

    # -- vector-clock divergence repair --------------------------------------

    def _finish_converge(self, uid_text: str,
                         sources: dict[str, tuple[int, int]],
                         targets: dict[str, tuple[int, int]],
                         best: tuple[int, int], outcome: str,
                         installed_count: int, clock_phase: bool,
                         ) -> Generator[Any, Any, tuple[str, int]]:
        """Scalar convergence's epilogue: the vector-clock tie-break.

        Replicas whose probed versions sit at the scalar maximum may
        still hold divergent content -- a partial partition lets each
        side commit a different write, bumping both scalars
        identically.  Probe their clocks; if they disagree, repair.
        """
        if not clock_phase:
            return outcome, installed_count
        level = sorted({name
                        for name, versions in {**targets, **sources}.items()
                        if tuple(versions) == best})
        if len(level) < 2:
            return outcome, installed_count
        verdict, repairs = yield from self._repair_divergence(uid_text, level)
        if verdict == "deferred":
            return "deferred", installed_count
        if repairs:
            return "copied", installed_count + repairs
        return outcome, installed_count

    def _repair_divergence(self, uid_text: str, level: list[str],
                           ) -> Generator[Any, Any, tuple[str, int]]:
        """Converge equal-version replicas whose clocks disagree.

        Dominance installs: a clock pointwise >= every other proves its
        holder saw every commit the others did, so its content wins
        outright.  True concurrency (no dominator) resolves by the
        deterministic owner order -- the first divergent replica in the
        current view's write order -- so every repairer picks the same
        winner.  The winner's snapshot is force-installed on every
        divergent replica together with the pointwise-max merged clock,
        after which the group is convergent in one pass.  Returns
        ``("ok" | "deferred", repairs)``.
        """
        clocks: dict[str, dict[str, int]] = {}
        for node in level:
            try:
                clock = yield self.sync_rpc.call(
                    self.sync_target(node), self.sync_service,
                    "entry_clock", uid_text)
            except RpcError:
                return "deferred", 0  # a dark replica; retry a later pass
            clocks[node] = dict(clock)
        if len({tuple(sorted(clock.items()))
                for clock in clocks.values()}) <= 1:
            return "ok", 0  # identical histories: truly convergent
        winner = self._clock_winner(uid_text, clocks)
        merged: dict[str, int] = {}
        for clock in clocks.values():
            for writer, count in clock.items():
                if count > merged.get(writer, 0):
                    merged[writer] = count
        copy = yield from self.fetch_copy(winner, uid_text)
        if isinstance(copy, str):
            return "deferred", 0  # locked/unknown/dark; retry a later pass
        forced = EntryCopy(copy.hosts, copy.uses, copy.view, copy.versions,
                           copy.mode, merged)
        repairs = 0
        for node in level:
            # The winner is force-installed too: its own content is a
            # no-op overwrite, but the merged clock must land so the
            # group's histories agree from here on.
            verdict = yield from self.install_remote(node, uid_text, forced,
                                                     force=True)
            if verdict == "unreachable" or verdict is None:
                return "deferred", repairs
            if node != winner:
                repairs += 1
                self.metrics.counter(
                    "replica_io.divergence_repairs").increment()
        return "ok", repairs

    def _clock_winner(self, uid_text: str,
                      clocks: dict[str, dict[str, int]]) -> str:
        """The replica whose content survives a divergence repair."""
        for node in sorted(clocks):
            clock = clocks[node]
            if all(self._dominates(clock, other)
                   for other in clocks.values()):
                return node
        # Concurrent clocks: fall back to the fence-epoch + owner order
        # every repairer shares -- the first divergent replica in the
        # current view's write order.
        view = self.router.view()
        order = [node for node in view.write_set(uid_text, self.replication)
                 if node in clocks]
        return order[0] if order else sorted(clocks)[0]

    @staticmethod
    def _dominates(a: dict[str, int], b: dict[str, int]) -> bool:
        return all(a.get(writer, 0) >= count for writer, count in b.items())
