"""The naming client, and the sharded database's server facade.

Two pieces turn N per-host
:class:`~repro.naming.group_view_db.GroupViewDatabase` instances into
one logical service:

- :class:`ShardedGroupViewDbClient` -- the one naming client of every
  deployment.  It is the surface the binding schemes, replication
  policies, and recovery daemons are written against, and maps every
  operation onto the one :class:`~repro.naming.replica_io.ReplicaIO`
  engine, whose per-node connections
  (:class:`~repro.naming.db_client.GroupViewDbClient`) issue the
  RPCs: epoch-fenced
  fan-out writes through the current
  :class:`~repro.naming.shard_router.RingView`'s write set (each
  reached shard its own late-enlisted 2PC participant of the calling
  action), failover reads down the view's read order, and the multi-UID
  ``Exclude`` fan-out.  The routing policy itself -- dual-ownership
  unions during a staged transition, old-epoch-first reads, primary or
  spread read rotation -- lives in the view and the engine, not here.
  The paper's single name node is a ring of one with replication 1:
  every call goes to that node and enlists it eagerly.

- :class:`ShardedGroupViewDatabase` -- the server-side facade used by
  the system harness for bootstrap (``define_object``) and inspection.
  It holds the per-shard databases directly (they are registered on
  their own nodes for RPC) and routes by the same ring, so wire
  clients and the harness always agree on placement.

Every client RPC carries the captured view's fence token; a shard
whose ring has moved on answers
:class:`~repro.net.errors.StaleRingEpoch` and the engine re-routes the
remainder of the operation through a refreshed view (see
:mod:`repro.naming.replica_io` for the full protocol and its failure
handling).  Per-entry semantics survive partitioning untouched: a
UID's entry keeps the paper's per-entry locking on every replica
shard; writes lock all replicas, so conflicting actions collide on
whichever replica they reach first, exactly as they would on a single
home shard.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction
from repro.actions.outcomes import COORDINATOR_SERVICE
from repro.naming.coherence import CoherenceClient
from repro.naming.entry_cache import CachedEntry, EntryCache
from repro.naming.group_view_db import GroupViewDatabase
from repro.naming.object_server_db import ServerEntrySnapshot
from repro.naming.replica_io import READ_POLICIES, EntryCopy, ReplicaIO
from repro.naming.shard_router import ShardRouter
from repro.net.rpc import RpcAgent
from repro.storage.uid import Uid

__all__ = [
    "READ_POLICIES",
    "ShardedGroupViewDatabase",
    "ShardedGroupViewDbClient",
]


class ShardedGroupViewDbClient:
    """Routes the naming verbs over a shard ring (a ring of one included).

    With an :class:`~repro.naming.entry_cache.EntryCache` attached, the
    hot ``get_binding`` path becomes the *leased read plane*: a cache
    hit within its lease + fence-epoch bounds skips the network
    entirely; a miss repopulates through the engine's lock-free
    ``read_versioned`` (no read locks, no 2PC enlistment) and only
    falls back to the authoritative locking read when a live action
    holds the entry or the ring moves mid-read.  The client's own
    mutations invalidate its cached copy write-through, so an owner
    never serves itself a binding it knows it changed.  Cache-served
    reads are lease-consistent, not serializable; without a cache every
    read locks under the calling action.
    """

    def __init__(self, rpc: RpcAgent, router: ShardRouter,
                 replication: int = 1,
                 read_policy: str = "primary",
                 cache: EntryCache | None = None,
                 sync_suffix: str = "",
                 coherence_node: Any | None = None,
                 batcher: Any | None = None,
                 health: Any | None = None,
                 participant_retries: int = 0,
                 retry_rng: Any | None = None,
                 metrics: Any | None = None) -> None:
        self.io = ReplicaIO(rpc, router, replication,
                            read_policy=read_policy,
                            sync_suffix=sync_suffix, batcher=batcher,
                            health=health,
                            participant_retries=participant_retries,
                            retry_rng=retry_rng,
                            metrics=metrics)
        self.cache = cache
        # The coherence plane's client half: with a node handle and a
        # cache attached, push-mode entries register as lessees with
        # their owning shard host and receive multicast invalidations
        # instead of re-probing on every lease expiry.
        self.coherence: CoherenceClient | None = None
        if coherence_node is not None and cache is not None:
            self.coherence = CoherenceClient(coherence_node, self.io, cache,
                                             metrics=metrics)
        # Every bind's lookup (``get_binding``, ``get_binding_with_uses``)
        # is timed on the agent's scheduler into the
        # ``naming.get_server_latency`` histogram, failed ones too -- the
        # read-latency series benchmarks pull p50/p95/p99 from and the
        # autoscaler's p95 trigger reads.
        self._scheduler = rpc.scheduler
        self._latency = self.io.metrics.histogram("naming.get_server_latency")
        # Whom a db's janitor asks about the locks a bind's ``St`` read
        # takes under the client action: the view path names this node.
        self._outcomes = rpc.service(COORDINATOR_SERVICE)
        for node in router.nodes:
            self.io.client_for(node)

    # -- the leased read plane -----------------------------------------------

    def _invalidate(self, uid: Uid | str) -> None:
        """Write-through: drop our cached copy of an entry we mutate.

        Called at write time, not commit time: between the provisional
        write and the action's resolution, this client's reads must not
        be served the pre-write snapshot (a leased read would not see
        the action's own write); with the entry dropped, a same-action
        re-read goes authoritative and the entry's locks -- which this
        action holds -- give it its own provisional state, exactly as
        before the cache existed.  If the action later aborts, the cost
        was one spurious miss.
        """
        if self.cache is not None:
            self.cache.invalidate(str(uid))

    def _leased_read(self, uid: Uid,
                     ) -> Generator[Any, Any, "CachedEntry | EntryCopy | None"]:
        """Serve ``get_binding``/``get_view`` from the leased plane.

        The snapshot returned carries both halves -- ``hosts`` (the Sv
        set) and ``view`` (the St set) ride one entry, lease, and fence
        bound -- so a bind costs one lookup, not one per half.  A hit
        serves straight from memory; a miss tries the lock-free
        versioned read and repopulates.  Returning ``None`` means the
        caller must take the authoritative locking path (entry busy,
        replicas dark, uid unknown, or ring moved mid-read) -- which
        also owns raising the proper error.
        """
        assert self.cache is not None
        uid_text = str(uid)
        entry = self.cache.lookup(uid_text)
        if entry is not None:
            return entry
        # Only an expired push-mode entry lingers peekable (renewal on).
        expired = self.cache.peek(uid_text) if self.cache.renewal else None
        if expired is not None:
            renewed = yield from self._try_renew(uid_text, expired)
            if renewed is not None:
                return renewed
        # Capture the invalidation token and the clock before
        # suspending on the read: a write-through invalidation landing
        # mid-flight advances the token so the conditional store
        # refuses our (pre-write) snapshot, and anchoring the lease at
        # send time keeps the round-trip latency inside the staleness
        # bound instead of quietly extending it.
        token = self.cache.invalidation_token(uid_text)
        started = self.cache.clock()
        fetched = yield from self.io.read_versioned(uid)
        if fetched is None:
            return None
        copy, epoch = fetched
        if copy.mode == "push" and self.coherence is not None:
            # The owner says this entry is write-hot: become a lessee
            # before caching, so the snapshot is covered by pushes from
            # its first cached instant.  The registration reply carries
            # the owner's current versions -- a mismatch means a write
            # landed between the read and the registration, so serve
            # this (still committed) snapshot once without caching it.
            reg = yield from self.coherence.register(uid_text)
            if reg is not None:
                ttl, reg_versions = reg
                if tuple(reg_versions) != tuple(copy.versions):
                    return copy
                return self.cache.store(uid_text, copy.hosts, copy.view,
                                        copy.versions, ring_epoch=epoch,
                                        token=token, fetched_at=started,
                                        lease=ttl, mode="push")
            # Owner dark mid-registration: fall back to a plain pull
            # store -- the ordinary TTL bounds staleness without pushes.
        # None when a write raced us: the locking read serializes.
        return self.cache.store(uid_text, copy.hosts, copy.view,
                                copy.versions, ring_epoch=epoch,
                                token=token, fetched_at=started)

    def _try_renew(self, uid_text: str, entry: CachedEntry,
                   ) -> Generator[Any, Any, "CachedEntry | None"]:
        """Re-register an expired push-mode entry instead of re-reading.

        With renewal on, :meth:`EntryCache.lookup` leaves expired
        push-mode entries peekable (pull-mode ones it drops: their
        refetch needs one reply from any live replica).  The entry
        *re-registers* with its owner: the round trip that certifies
        the versions is the same one that extends the owner-side
        registry entry, so the lease can never outlive the window the
        owner pushes for.  The re-store is conditional on the token
        captured before the round trip, like any fill.  A version
        mismatch evicts: the snapshot is dead and the caller refetches.
        """
        started = self.cache.clock()
        token = self.cache.invalidation_token(uid_text)
        reg = yield from self.coherence.register(uid_text)
        if reg is None:
            return None  # owner dark; caller refetches
        ttl, versions = reg
        if tuple(versions) != entry.versions:
            self.cache.invalidate(uid_text)
            return None
        renewed = self.cache.store(
            uid_text, entry.hosts, entry.view, entry.versions,
            ring_epoch=entry.ring_epoch, token=token, fetched_at=started,
            lease=ttl, mode="push")
        if renewed is not None:
            self.cache.metrics.counter("entry_cache.renewed").increment()
        return renewed

    # -- per-UID operations (routed through the engine) ----------------------

    def get_binding(self, action: AtomicAction, uid: Uid,
                    view_action: AtomicAction,
                    ) -> Generator[Any, Any, tuple[list[str], list[str]]]:
        """``(Sv, St)`` of one entry: one leased lookup, or one
        authoritative walk (``Sv`` locked under ``action``, ``St``
        under ``view_action``)."""
        started = self._scheduler.now
        try:
            entry = None
            if self.cache is not None:
                entry = yield from self._leased_read(uid)
            if entry is not None:
                return list(entry.hosts), list(entry.view)
            return (yield from self.io.read(
                action, uid, "get_binding", str(uid),
                self._outcomes.path(view_action)))
        finally:
            # A lookup that failed waited too: the p95 trigger must see it.
            self._latency.observe(self._scheduler.now - started)

    def get_binding_with_uses(
            self, action: AtomicAction, uid: Uid, view_action: AtomicAction,
            ) -> Generator[Any, Any, tuple[ServerEntrySnapshot, list[str]]]:
        """``(Sv with use lists, St)`` from one authoritative walk --
        never the leased plane: this is a write-intent read, ``Sv``
        INCREMENT-locked under ``action`` and ``St`` read-locked under
        ``view_action``, the answering replica enlisted for both."""
        started = self._scheduler.now
        try:
            return (yield from self.io.read(
                action, uid, "get_binding_with_uses", str(uid),
                self._outcomes.path(view_action), view_action=view_action))
        finally:
            self._latency.observe(self._scheduler.now - started)

    def insert(self, action: AtomicAction, uid: Uid,
               host: str) -> Generator[Any, Any, None]:
        self._invalidate(uid)
        yield from self.io.write(action, uid, "insert", str(uid), host)

    def remove(self, action: AtomicAction, uid: Uid,
               host: str) -> Generator[Any, Any, None]:
        self._invalidate(uid)
        yield from self.io.write(action, uid, "remove", str(uid), host)

    def increment(self, action: AtomicAction, client_node: str, uid: Uid,
                  hosts: list[str]) -> Generator[Any, Any, None]:
        """``Increment``; the node's outcome table counts the uses from
        now, for the name nodes' janitors to reconcile with."""
        self._invalidate(uid)
        self._outcomes.hold(action, str(uid), list(hosts))
        yield from self.io.write(action, uid, "increment", client_node,
                                 str(uid), list(hosts))

    def decrement(self, action: AtomicAction, client_node: str, uid: Uid,
                  hosts: list[str]) -> Generator[Any, Any, None]:
        """``Decrement``; the uses stop counting once ``action`` ends."""
        self._invalidate(uid)
        self._outcomes.hold(action, str(uid), list(hosts), ending=True)
        yield from self.io.write(action, uid, "decrement", client_node,
                                 str(uid), list(hosts))

    def get_view(self, action: AtomicAction,
                 uid: Uid) -> Generator[Any, Any, list[str]]:
        if self.cache is not None:
            entry = yield from self._leased_read(uid)
            if entry is not None:
                return list(entry.view)
        return (yield from self.io.read(action, uid, "get_view", str(uid)))

    def include(self, action: AtomicAction, uid: Uid,
                host: str) -> Generator[Any, Any, None]:
        self._invalidate(uid)
        yield from self.io.write(action, uid, "include", str(uid), host)

    # -- multi-UID operations (fanned out per shard) ------------------------

    def exclude(self, action: AtomicAction,
                exclusions: list[tuple[Uid, list[str]]],
                ) -> Generator[Any, Any, None]:
        for uid, _hosts in exclusions:
            self._invalidate(uid)
        yield from self.io.exclude(action, exclusions)


class ShardedGroupViewDatabase:
    """Server-side facade over the per-shard databases.

    Used by the system harness for synchronous bootstrap and
    inspection; RPC traffic never flows through it (each shard's
    database is registered on its own node).  ``commit``/``abort`` are
    broadcast -- both are no-ops on shards the action never touched --
    so bootstrap code can terminate a multi-shard action in one call.
    Reads route to the primary replica; replica-by-replica inspection
    goes through :attr:`shards` directly.
    """

    def __init__(self, router: ShardRouter,
                 shards: dict[str, GroupViewDatabase],
                 replication: int = 1) -> None:
        if set(router.nodes) != set(shards):
            raise ValueError("shard ring and database map disagree: "
                             f"{sorted(router.nodes)} vs {sorted(shards)}")
        if replication < 1 or replication > len(shards):
            raise ValueError(f"replication must be in 1..{len(shards)}, "
                             f"got {replication}")
        self.router = router
        self.shards = dict(shards)
        self.replication = replication

    def add_shard(self, node: str, db: GroupViewDatabase) -> None:
        """Admit a booted-but-not-yet-owning shard host's database.

        Online resharding boots the new host *before* staging the ring
        transition; the facade must know its database so dual-ownership
        bootstrap writes (and post-flip routing) can reach it.  The
        router only routes to it once the ReshardManager flips.
        """
        if node in self.shards:
            raise ValueError(f"shard already known to the facade: {node}")
        self.shards[node] = db

    def remove_shard(self, node: str) -> GroupViewDatabase:
        """Forget a drained shard host's database (after its GC pass)."""
        if node in self.router.nodes:
            raise ValueError(f"cannot drop a shard still on the ring: {node}")
        return self.shards.pop(node)

    def shard_db(self, uid_text: str) -> GroupViewDatabase:
        return self.shards[self.router.shard_for(uid_text)]

    def replica_dbs(self, uid_text: str) -> dict[str, GroupViewDatabase]:
        """The replica databases holding ``uid_text``, primary first.

        During a ring transition the union of both epochs' owners, so
        harness bootstrap writes land wherever clients would put them.
        """
        return {node: self.shards[node] for node in
                self.router.union_preference_list(uid_text, self.replication)}

    # -- routed operations (the harness-facing subset) ----------------------

    def define_object(self, action_path: tuple[int, ...], uid_text: str,
                      sv_hosts: list[str], st_hosts: list[str]) -> None:
        """Place the entry on the least-loaded replica set, then write it
        there (the one place a key gets its partition)."""
        self.router.place(uid_text, self.replication)
        for db in self.replica_dbs(uid_text).values():
            db.define_object(action_path, uid_text, sv_hosts, st_hosts)

    def knows(self, uid_text: str) -> bool:
        return any(db.knows(uid_text)
                   for db in self.replica_dbs(uid_text).values())

    def get_server_with_uses(self, action_path: tuple[int, ...], uid_text: str,
                             for_update: bool = False) -> ServerEntrySnapshot:
        return self.shard_db(uid_text).get_server_with_uses(
            action_path, uid_text, for_update)

    def get_view(self, action_path: tuple[int, ...],
                 uid_text: str) -> list[str]:
        return self.shard_db(uid_text).get_view(action_path, uid_text)

    def is_quiescent(self, uid_text: str) -> bool:
        return self.shard_db(uid_text).is_quiescent(uid_text)

    def commit(self, action_path: tuple[int, ...]) -> None:
        for db in self.shards.values():
            db.commit(action_path)

    def abort(self, action_path: tuple[int, ...]) -> None:
        for db in self.shards.values():
            db.abort(action_path)
