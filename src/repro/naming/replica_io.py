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
instead.  One engine levels replicas, whoever asks:

- :meth:`probe_many` -- lock-free write versions, one
  ``entry_versions_many`` round trip per node;
- :meth:`converge` -- for a batch of entries with named source and
  target replicas: one ``read_entry_versioned_many`` per fresher
  source (each snapshot taken under server-local probe locks that live
  and die inside the dispatch), a lock-guarded, version-gated
  ``guarded_install_entry`` per lagging target, then the vector-clock
  tie-break among the replicas level at the scalar maximum -- one
  ``entry_clocks_many`` per level node, one winner rule, and the
  winner's snapshot force-installed with the merged clock on every
  divergent *target*.

Shard resync and anti-entropy, read-repair, and the reshard migration
are *triggers* over that engine: each decides when to run, which
entries, and which replicas are sources and targets.  A target may be
the caller's own database (a resync pulling into the host it runs on):
named in ``local``, it is probed and installed by direct call, never
over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator, Iterable, Mapping, NamedTuple

from repro.actions.action import AtomicAction
from repro.naming.db_client import GroupViewDbClient
from repro.naming.errors import UnknownObject
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.naming.shard_router import ShardRouter
from repro.net.errors import RpcError, StaleRingEpoch
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

Versions = tuple[int, int]  # (server, state) write versions of one entry
Clock = dict[str, int]      # per-writer commit counts of one entry
Probes = dict[str, Versions]  # replica name -> its probed versions
# What :meth:`ReplicaIO.converge` levels: uid -> (sources, targets).
Entries = Mapping[str, tuple[Probes, Probes]]

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
    versions: Versions
    # The coherence plane's verdict for the entry: "pull" (lease+TTL)
    # or "push" (register with the owner; it multicasts invalidations).
    mode: str
    # The entry's per-writer vector clock.  Divergence repair carries
    # the merged clock here on its force-installs.
    vclock: Clock

    @classmethod
    def from_wire(cls, result: Any) -> "EntryCopy":
        """Decode one ``read_entry_versioned`` wire tuple (the one
        implementation every versioned-read consumer shares)."""
        hosts, uses, view, versions, mode, vclock = result
        return cls(list(hosts),
                   {host: dict(counters) for host, counters in uses.items()},
                   list(view), tuple(versions), mode, dict(vclock))


class Converged(NamedTuple):
    """What :meth:`ReplicaIO.converge` did for one entry."""

    # "clean" | "copied" | "settled" | "deferred" | "unknown"
    outcome: str
    installed: int  # version-gated installs that landed on a target
    repaired: int   # clock-divergent targets overwritten by the winner


def _behind(versions: Versions, other: Versions) -> bool:
    """Whether ``versions`` lags ``other`` on either half."""
    return versions[0] < other[0] or versions[1] < other[1]


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

    # -- the client plane: fenced, action-scoped operations ------------------

    def _note_stale(self) -> None:
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
             *args: Any, view_action: AtomicAction | None = None,
             ) -> Generator[Any, Any, Any]:
        """Serve a read from the first live replica in preference order.

        ``view_action`` names a second action the read takes locks
        under: the replica that answers is enlisted for its root as
        well as ``action``'s, or that lock would never be released.

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
                        action, method, *args, ring_epoch=view.epoch,
                        view_action=view_action))
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
                        action, method, *args, ring_epoch=view.epoch,
                        view_action=view_action)
                except StaleRingEpoch as exc:
                    self._note_stale()
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
                if unknown is not None and self.repair is not None:
                    # We stepped past a replica disclaiming the entry
                    # -- on this walk or one a fence retry restarted:
                    # it is stale-missing; queue a lock-guarded re-seed.
                    self.repair.note_stale(uid)
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
            if unknown_seen and self.repair is not None:
                self.repair.note_stale(uid)
            return EntryCopy.from_wire(result), view.epoch
        return None

    # -- lease renewal: fenced version probes on the client plane ------------

    def probe_versions(self, uid_text: str, nodes: Iterable[str],
                       ring_epoch: int,
                       ) -> Generator[Any, Any, tuple[Probes, list[str]]]:
        """Lock-free per-replica version probes certifying a lease.

        Returns ``(probes, dark)``: the (server, state) write versions
        of every node that answered, and the nodes that did not.  The
        probes ride the *client* service, tagged with the view's
        ``ring_epoch``: a replica held out of the serving path cannot
        certify a lease with stale versions, and one the ring has moved
        past (e.g. a drained owner still holding the pre-move entry
        before GC) is fenced into the dark set instead of certifying
        versions for an arc it no longer serves.
        """
        probes: Probes = {}
        dark: list[str] = []
        for node in nodes:
            try:
                versions = yield self.rpc.call(
                    node, self.service, "entry_versions", uid_text,
                    ring_epoch=ring_epoch)
            except RpcError:  # includes StaleRingEpoch fencing rejections
                dark.append(node)
                continue
            probes[node] = tuple(versions)
        return probes, dark

    # -- the sync plane: unfenced replica-maintenance protocol ---------------

    def _sync_call(self, local: Mapping[str, Any], node: str, method: str,
                   *args: Any) -> Generator[Any, Any, Any]:
        """One maintenance call on ``node``'s database.

        A direct call when the database is the caller's own (named in
        ``local``), otherwise an RPC over the sync plane -- the seam
        that lets one engine serve pull (resync into the local
        database) and push (repair, migration) alike.
        """
        db = local.get(node)
        if db is not None:
            return getattr(db, method)(*args)
        return (yield self.sync_rpc.call(self.sync_target(node),
                                         self.sync_service, method, *args))

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
                uids = yield from self._sync_call({}, node, "list_uids")
            except RpcError:
                continue
            answered += 1
            universe.update(uids)
        return universe, answered

    def probe_many(self, uids_by_node: Mapping[str, list[str]],
                   local: Mapping[str, Any] | None = None,
                   ) -> Generator[Any, Any,
                                  tuple[dict[str, Probes], set[str]]]:
        """Write versions of many entries, one round trip per node.

        Given the uids each node should answer for, returns
        ``(probes_by_uid, dark_nodes)`` where ``probes_by_uid[uid][node]``
        holds the node's (server, state) versions -- a uid simply has
        no entry for a dark node.  Versions are lock-free lower bounds;
        every install re-checks them under locks.  Nodes are probed in
        the caller's order, except that ``local`` databases are read
        last, so they are never staler than the peers they are compared
        against.
        """
        local = local or {}
        probes_by_uid: dict[str, Probes] = {
            uid_text: {} for uids in uids_by_node.values()
            for uid_text in uids}
        dark: set[str] = set()
        for node in sorted(uids_by_node, key=local.__contains__):  # stable
            uids = uids_by_node[node]
            try:
                versions = yield from self._sync_call(
                    local, node, "entry_versions_many", uids)
            except RpcError:
                dark.add(node)
                continue
            for uid_text, entry in zip(uids, versions):
                probes_by_uid[uid_text][node] = tuple(entry)
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

    def _install(self, local: Mapping[str, Any], target: str, uid_text: str,
                 copy: EntryCopy, force: bool = False,
                 ) -> Generator[Any, Any, "bool | None"]:
        """Land one snapshot through ``target``'s lock-guarded install.

        ``force`` bypasses the scalar version gate -- only the clock
        tie-break uses it, to overwrite an equal-version loser with the
        vector-clock winner.  Returns ``True`` installed, ``False``
        already fresh, ``None`` when the snapshot must not be forced
        past the target: a live action there holds the entry, or the
        target went dark.
        """
        try:
            return (yield from self._sync_call(
                local, target, "guarded_install_entry", uid_text,
                copy.hosts, copy.uses, copy.view, copy.versions,
                copy.vclock, force))
        except RpcError:
            return None

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
        (see :meth:`probe_many`); they may overlap -- a replica is never
        "behind" itself.  Every source strictly ahead of some target
        answers one batched snapshot read covering all such entries,
        and each snapshot is pushed to each target still behind it;
        consulting more than one source matters because an equal-version
        peer may simply share a target's staleness, and the two version
        halves' maxima can live on different replicas (the version-gated
        install merges them per half).  Replicas named in ``local`` are
        read and installed by direct call.

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

        A *vector-clock tie-break* follows scalar convergence (see
        :meth:`_break_ties`): equal versions do not prove equal content.
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
            for uid_text, names in wanted.items():
                copy = copies[uid_text]
                if copy == "locked":
                    deferred.add(uid_text)  # busy entry; next pass retries
                    continue
                if copy == "unknown":
                    # Aborted define, or only the peers hold it.
                    disclaimed[uid_text] = disclaimed.get(uid_text, 0) + 1
                    continue
                for name in names:
                    landed = yield from self._install(local, name, uid_text,
                                                      copy)
                    if landed is None:
                        deferred.add(uid_text)
                        continue
                    if landed:
                        installed[uid_text] += 1
                        self.metrics.counter(
                            "replica_io.entries_installed").increment()
                    old_sv, old_st = known[uid_text][name]
                    known[uid_text][name] = (max(old_sv, copy.versions[0]),
                                             max(old_st, copy.versions[1]))

        results: dict[str, Converged] = {}
        level: dict[str, list[str]] = {}
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
                nodes = sorted(name for name, versions
                               in known[uid_text].items()
                               if versions == best[uid_text])
                if len(nodes) > 1:
                    level[uid_text] = nodes
            results[uid_text] = Converged(outcome, installed[uid_text], 0)
        repairs = yield from self._break_ties(entries, level, local)
        for uid_text, repaired in repairs.items():
            if repaired is None:
                results[uid_text] = Converged("deferred",
                                              installed[uid_text], 0)
            elif repaired:
                results[uid_text] = Converged("copied", installed[uid_text],
                                              repaired)
        return results

    # -- the vector-clock tie-break ------------------------------------------

    def _break_ties(self, entries: Entries, level: Mapping[str, list[str]],
                    local: Mapping[str, Any],
                    ) -> Generator[Any, Any, "dict[str, int | None]"]:
        """Converge equal-version replicas whose clocks disagree.

        ``level`` maps each uid to the replicas sitting at its scalar
        maximum.  They may still hold divergent content -- a partial
        partition lets each side commit a different write, bumping both
        scalars identically -- and only their per-writer clocks can
        tell.  The clocks are probed, one ``entry_clocks_many`` per
        node and role, and an entry is repaired (see
        :meth:`_repair_divergence`) as soon as its last level node has
        answered.  Sources answer first, replicas that are only targets
        after them (``local`` ones last of all): a commit racing the
        probes then makes a target look *ahead* of its sources, which
        is harmless, never behind them -- a spurious forced re-copy,
        and for a migration under steady writes an arc that never
        confirms.

        Returns ``{uid: repairs}`` for the entries that needed any --
        the divergent non-winner targets overwritten -- with ``None``
        when a dark or locked replica deferred the repair.
        """
        as_source: dict[str, list[str]] = {}
        as_target: dict[str, list[str]] = {}
        for uid_text, nodes in level.items():
            sources = entries[uid_text][0]
            for node in nodes:
                if node not in local:
                    role = as_source if node in sources else as_target
                    role.setdefault(node, []).append(uid_text)
        clocks: dict[str, dict[str, Clock]] = {uid_text: {}
                                              for uid_text in level}
        repairs: dict[str, int | None] = {}
        for node, uids in (*sorted(as_source.items()),
                           *sorted(as_target.items())):
            try:
                answers = yield from self._sync_call(
                    local, node, "entry_clocks_many", uids)
            except RpcError:
                repairs.update(dict.fromkeys(uids))  # dark; retry later
                continue
            cases = {}
            for uid_text, clock in zip(uids, answers):
                seen = clocks[uid_text]
                seen[node] = dict(clock)
                nodes = level[uid_text]
                if uid_text in repairs or not all(
                        name in seen or name in local for name in nodes):
                    continue  # deferred, or a level node is still to answer
                # Local clocks are read last, like local versions.
                seen.update((name, local[name].entry_clock(uid_text))
                            for name in nodes if name in local)
                cases[uid_text] = (seen, [name for name in entries[uid_text][1]
                                          if name in seen])
            yield from self._repair_divergence(cases, local, repairs)
        return repairs

    def _repair_divergence(self, cases: Mapping[str, tuple[dict[str, Clock],
                                                           list[str]]],
                           local: Mapping[str, Any],
                           repairs: dict[str, "int | None"],
                           ) -> Generator[Any, Any, None]:
        """Overwrite clock-divergent targets with the winner's content.

        ``cases`` maps each uid to ``(clocks, targets)``: the clock of
        every replica level at its scalar maximum, and which of those
        replicas this pass may write.  The winner's snapshot (see
        :meth:`_clock_winner`) is force-installed, together with the
        pointwise-max merged clock, on every target whose clock differs
        from the merged one -- the winner included when it is a target,
        its content a no-op but its history now agreeing with the
        group's -- after which the group is convergent in one pass.
        Replicas that are sources only are never written: their own
        trigger pulls from the winner.  Outcomes land in ``repairs``.
        """
        by_winner: dict[str, list[tuple[str, Clock, list[str]]]] = {}
        for uid_text, (clocks, targets) in cases.items():
            merged = self._merge_clocks(clocks.values())
            divergent = [name for name in targets if clocks[name] != merged]
            if divergent:
                by_winner.setdefault(self._clock_winner(uid_text, clocks),
                                     []).append((uid_text, merged, divergent))
        for winner, losers in by_winner.items():
            copies = yield from self._read_many(
                local, winner, [uid_text for uid_text, _, _ in losers])
            for uid_text, merged, divergent in losers:
                copy = copies and copies[uid_text]
                if not isinstance(copy, EntryCopy):
                    repairs[uid_text] = None  # locked/unknown/dark
                    continue
                # The clock must cover the content: the snapshot's own
                # clock may have moved past the probed one.
                forced = replace(copy, vclock=self._merge_clocks(
                    [merged, copy.vclock]))
                repairs[uid_text] = 0
                for name in divergent:
                    landed = yield from self._install(
                        local, name, uid_text, forced, force=True)
                    if landed is None:
                        repairs[uid_text] = None
                        break
                    if name != winner:
                        repairs[uid_text] += 1
                        self.metrics.counter(
                            "replica_io.divergence_repairs").increment()

    def _clock_winner(self, uid_text: str, clocks: dict[str, Clock]) -> str:
        """The replica whose content survives a divergence repair.

        Dominance wins: a clock pointwise >= every other proves its
        holder saw every commit the others did.  True concurrency (no
        dominator) resolves by the deterministic owner order -- the
        first divergent replica in the current view's write order -- so
        every repairer picks the same winner.
        """
        for node in sorted(clocks):
            if all(count <= clocks[node].get(writer, 0)
                   for other in clocks.values()
                   for writer, count in other.items()):
                return node
        view = self.router.view()
        order = [node for node in view.write_set(uid_text, self.replication)
                 if node in clocks]
        return order[0] if order else sorted(clocks)[0]

    @staticmethod
    def _merge_clocks(clocks: Iterable[Clock]) -> Clock:
        """The pointwise maximum: the history that covers every clock."""
        merged: Clock = {}
        for clock in clocks:
            for writer, count in clock.items():
                if count > merged.get(writer, 0):
                    merged[writer] = count
        return merged
