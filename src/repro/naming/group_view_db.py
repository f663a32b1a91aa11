"""The combined group-view database.

The paper's concluding remarks: "The two databases have been
implemented as a single Arjuna object, referred to as the group view
database."  This class hosts an
:class:`~repro.naming.object_server_db.ObjectServerDatabase` and an
:class:`~repro.naming.object_state_db.ObjectStateDatabase` behind one
service interface and one two-phase-commit participant.  Entries remain
independently concurrency-controlled (the lock resources are keyed
``("sv", uid)`` and ``("st", uid)``).

The server half is a constructor argument.  The section-5 variant --
"keep available server related data in a 'traditional (non-atomic)'
name server, and retain the services of a modified object state server
database with atomic action support" -- is this same database with a
:class:`~repro.naming.nonatomic.NonAtomicNameServer` as its server
half: every ``Sv`` verb then applies at once, unlocked and
irrevocable, and the participant's vote and outcome are the atomic
``St`` half's alone (the non-atomic half votes ``"readonly"``).

Action ids arrive as path tuples (the RPC wire form); every method is
safe to expose as an RPC service.

Beyond the paper's surface, the database serves the *leased read
plane* and the batched replica-maintenance protocol on the sync
service: :meth:`read_entry_versioned` (a committed snapshot plus write
versions under probe locks that never span the wire, no 2PC
enlistment), the partition-digest comparison :meth:`diff_partitions`
that anti-entropy, resync and migration enumerate by, and
the coalesced :meth:`read_entry_versioned_many` round trip every copier
batches its snapshot reads into.
A write version is ``(count, digest)`` per half (see
:mod:`repro.naming.db_base`): the one freshness order every probe,
lease and install compares.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Generator, Mapping

from repro.actions.action import AtomicAction
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.locks import LockMode
from repro.naming.db_base import ActionPath, Parking, Version, _is_prefix, digest
from repro.naming.errors import UnknownObject
from repro.naming.nonatomic import NonAtomicNameServer
from repro.naming.object_server_db import ObjectServerDatabase, ServerEntrySnapshot
from repro.naming.object_state_db import ObjectStateDatabase
from repro.net.batch import demux
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

SERVICE_NAME = "group_view_db"

# The replica-internal side door: shard hosts serve the same database
# under this second name for resync, anti-entropy and arc migration.
# Recovery gating (pulling a stale host out of the
# *client* serving path until it has caught up) unregisters only
# SERVICE_NAME; the sync service stays up whenever the node is up, so
# any set of simultaneously-recovering replicas can still copy from
# each other -- gated peers deadlocking an arc's resync is otherwise a
# real failure mode under stochastic churn.  Every install flowing over
# this plane is version-gated, so reading a still-stale gated peer can
# never move a replica backwards.
SYNC_SERVICE_NAME = "group_view_db_sync"


class GroupViewDatabase:
    """Single object combining the server and state databases."""

    def __init__(self, use_exclude_write_lock: bool = True,
                 metrics: MetricsRegistry | None = None,
                 partition_of: Callable[[str], int] | None = None,
                 server_db: ObjectServerDatabase | NonAtomicNameServer
                 | None = None) -> None:
        shared_metrics = metrics or MetricsRegistry()
        # The server half: atomic by default, or the section-5 variant's
        # non-atomic server (which keeps no lock table and no digest
        # marks, so it serves only the paper's ring of one).
        self.server_db = (server_db if server_db is not None
                          else ObjectServerDatabase(metrics=shared_metrics))
        self.state_db = ObjectStateDatabase(
            use_exclude_write_lock=use_exclude_write_lock,
            metrics=shared_metrics)
        self.metrics = shared_metrics
        # The coherence plane's commit hook (a CoherenceHost, attached
        # by the shard-host boot path).  Mutators record which uids an
        # action touched; commit hands the committed ones over so the
        # owner can push invalidations to registered lessees.
        self.coherence: Any = None
        self._touched: list[tuple[tuple[int, ...], str]] = []
        # The anti-entropy index (see :meth:`diff_partitions`), kept on
        # every name node the harness boots -- ``partition_of`` is the
        # shared router's, and a database built without one keeps none.
        # Each partition's uids, and the digest and rows of every
        # partition none of whose entries changed since they were
        # computed: the halves report each change to :meth:`_mark`.
        self._partition_of = partition_of
        self._members: dict[int, set[Uid]] = {}
        self._digests: dict[int, tuple[int, list[tuple]]] = {}
        if partition_of is not None:
            self.server_db.on_change = self.state_db.on_change = self._mark
        # Set by :meth:`park_on`: where an update-intent read may park.
        self.parking: Parking | None = None

    def park_on(self, rpc: RpcAgent) -> None:
        """Let a conflicting :meth:`get_binding_with_uses` park behind
        older holders on ``rpc``'s clock for half its RPC timeout.

        The bound keeps a parked reply inside the caller's own timeout,
        which is the same ``rpc_timeout`` cluster-wide: the caller hears
        a grant or a refusal, never a silence it would read as a dead
        name node.
        """
        self.parking = (rpc.scheduler, rpc.default_timeout / 2)

    # -- administrative -------------------------------------------------------

    def define_object(self, action_path: ActionPath, uid_text: str,
                      sv_hosts: list[str], st_hosts: list[str]) -> None:
        """Register a new persistent object's Sv and St sets."""
        uid = Uid.parse(uid_text)
        self.server_db.define(action_path, uid, sv_hosts)
        self.state_db.define(action_path, uid, st_hosts)
        self._touch(action_path, uid_text)

    def _touch(self, action_path: ActionPath, uid_text: str) -> None:
        """Record a provisional mutation for the commit-time push hook.

        The list is bounded by the in-flight actions: every entry is
        popped by the prefix match in :meth:`commit`/:meth:`abort`, and
        :meth:`reset_volatile` (crash) drops the lot with the undo
        logs they mirror.
        """
        self._touched.append((tuple(action_path), uid_text))

    def _resolve_touched(self, action_path: ActionPath,
                         committed: bool) -> None:
        """Pop this action's touched uids; notify coherence on commit."""
        if not self._touched:
            return
        prefix = tuple(action_path)
        kept: list[tuple[tuple[int, ...], str]] = []
        resolved: list[str] = []
        for path, uid_text in self._touched:
            if _is_prefix(prefix, path):
                resolved.append(uid_text)
            else:
                kept.append((path, uid_text))
        self._touched = kept
        if committed and resolved and self.coherence is not None:
            self.coherence.note_committed(list(dict.fromkeys(resolved)))

    def knows(self, uid_text: str) -> bool:
        return self.server_db.knows(Uid.parse(uid_text))

    # -- object server database operations --------------------------------------

    def get_binding(self, action_path: ActionPath, uid_text: str,
                    view_path: ActionPath) -> tuple[list[str], list[str]]:
        """``(Sv, St)`` of one entry: everything a bind reads, in one call.

        Two owners, as when the two halves were read by two calls:
        ``view_path`` (the client action) takes the ``St`` read lock --
        the lock a commit-time ``Exclude`` promotes -- and
        ``action_path`` (the nested GetServer action of figure 6) takes
        the ``Sv`` one.  ``St`` is read first, so a refusal there leaves
        nothing locked on ``Sv``.
        """
        uid = Uid.parse(uid_text)
        view = self.state_db.get_view(view_path, uid)
        return self.server_db.get_server(action_path, uid), view

    def get_binding_with_uses(self, action_path: ActionPath, uid_text: str,
                              view_path: ActionPath,
                              ) -> tuple[ServerEntrySnapshot, list[str]]:
        """:meth:`get_binding` for the use-list schemes (figures 7, 8).

        ``action_path`` is their independent top-level action, which
        goes on to ``Increment``: it takes the ``Sv`` INCREMENT lock
        (binders exclude each other; a Decrement may share it) and gets
        the use lists too.  ``view_path`` (the client action) takes
        the ``St`` read lock, first, as there.  Once :meth:`park_on`
        has armed parking, a binder behind older binders waits for the
        INCREMENT lock instead of being refused (the handler then
        returns a generator).
        """
        uid = Uid.parse(uid_text)
        view = self.state_db.get_view(view_path, uid)
        snapshot = self.server_db.get_server_with_uses(
            action_path, uid, for_update=True, park=self.parking)
        if isinstance(snapshot, ServerEntrySnapshot):
            return snapshot, view
        return _beside(snapshot, view)  # parked: a generator handler

    def get_server_with_uses(self, action_path: ActionPath, uid_text: str,
                             for_update: bool = False) -> ServerEntrySnapshot:
        return self.server_db.get_server_with_uses(
            action_path, Uid.parse(uid_text), for_update)

    def insert(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        self.server_db.insert(action_path, Uid.parse(uid_text), host)
        self._touch(action_path, uid_text)

    def remove(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        self.server_db.remove(action_path, Uid.parse(uid_text), host)
        self._touch(action_path, uid_text)

    def increment(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        self.server_db.increment(action_path, client_node, Uid.parse(uid_text), hosts)
        self._touch(action_path, uid_text)

    def decrement(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        self.server_db.decrement(action_path, client_node, Uid.parse(uid_text), hosts)
        self._touch(action_path, uid_text)

    def use_counts(self) -> dict[str, tuple[Version, set[str]]]:
        """What the janitor reconciles (see the server database's
        ``use_counts``).  The section-5 variant's non-atomic half
        offers nothing: no action can repair it."""
        return getattr(self.server_db, "use_counts", dict)()

    def lower_uses(self, action_path: ActionPath, uid_text: str,
                   version: Version,
                   held: Mapping[str, Mapping[str, int]]) -> bool:
        """The janitor's use-count repair (see the server database's
        ``lower_uses``): an entry it lowered goes to the commit-time
        push hook like any mutation."""
        lowered = self.server_db.lower_uses(action_path, Uid.parse(uid_text),
                                            version, held)
        if lowered:
            self._touch(action_path, uid_text)
        return lowered

    def is_quiescent(self, uid_text: str) -> bool:
        return self.server_db.is_quiescent(Uid.parse(uid_text))

    # -- object state database operations ----------------------------------------

    def get_view(self, action_path: ActionPath, uid_text: str) -> list[str]:
        return self.state_db.get_view(action_path, Uid.parse(uid_text))

    def exclude(self, action_path: ActionPath,
                exclusions: list[tuple[str, list[str]]]) -> None:
        parsed = [(Uid.parse(uid_text), list(hosts))
                  for uid_text, hosts in exclusions]
        self.state_db.exclude(action_path, parsed)
        for uid_text, _hosts in exclusions:
            self._touch(action_path, uid_text)

    def include(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        self.state_db.include(action_path, Uid.parse(uid_text), host)
        self._touch(action_path, uid_text)

    # -- 2PC participant (spans both halves) ---------------------------------------

    def _locking_halves(self) -> list[Any]:
        """The halves with a lock table (the section-5 variant's
        non-atomic half keeps none)."""
        return [half for half in (self.server_db, self.state_db)
                if not isinstance(half, NonAtomicNameServer)]

    def parts(self) -> dict[int, tuple[str, bool]]:
        """What the janitor judges here: top-level serial ->
        (coordinator ref, wrote here) over both halves' lock tables."""
        halves = self._locking_halves()
        return {owner.path[0]: (owner.node, any(
            half.wrote(owner.path[:1]) for half in halves))
            for half in halves for owner in half.locks.owners() if owner.node}

    def restart(self) -> None:
        """The restart rule of an unreplicated name node, on recovery.

        Aborts every top-level action whose part here wrote nothing:
        its read locks go and its parked requests are refused, since
        the handlers that held them died with the node.  A written part
        is kept: its acknowledgement was its vote, so it waits for the
        told outcome or for the janitor to ask its coordinator.
        """
        halves = self._locking_halves()
        for serial in sorted({owner.path[0] for half in halves for owner in
                              half.locks.owners() | half.locks.waiters()}):
            if not any(half.wrote((serial,)) for half in halves):
                self.abort((serial,))

    def prepare(self, action_path: ActionPath) -> str:
        votes = (self.server_db.prepare(action_path),
                 self.state_db.prepare(action_path))
        if "abort" in votes:
            return "abort"
        return "ok" if "ok" in votes else "readonly"

    def commit(self, action_path: ActionPath) -> None:
        self.server_db.commit(action_path)
        self.state_db.commit(action_path)
        self._resolve_touched(action_path, committed=True)

    def abort(self, action_path: ActionPath) -> None:
        self.server_db.abort(action_path)
        self.state_db.abort(action_path)
        self._resolve_touched(action_path, committed=False)

    # -- batched 2PC participant ----------------------------------------------
    #
    # Server half of the commit batcher: one RPC carries many actions'
    # phase messages, one outcome tuple comes back per action -- each
    # item runs the single-action handler under ``demux``'s per-item
    # guard, so one action's refusal (vote "abort", lock conflict,
    # unknown path) never poisons its batchmates.  There is no
    # ``prepare_many``: no client sends a name node ``prepare``.

    def commit_many(self, items: list[tuple]) -> list[tuple]:
        return demux(self.commit, items)

    def abort_many(self, items: list[tuple]) -> list[tuple]:
        return demux(self.abort, items)

    # -- anti-entropy: partition digests --------------------------------------------

    def _mark(self, uid: Uid) -> None:
        """An entry half changed: its partition's digest is stale."""
        assert self._partition_of is not None
        partition = self._partition_of(str(uid))
        members = self._members.setdefault(partition, set())
        if self.server_db.knows(uid) or self.state_db.knows(uid):
            members.add(uid)
        else:
            members.discard(uid)
        self._digests.pop(partition, None)

    def _partition(self, partition: int) -> tuple[int, list[tuple]] | None:
        """``(digest, rows)`` of a partition this replica holds entries
        of, else None; recomputed only after one of them changed.

        A row is ``(uid, sv_count, sv_digest, st_count, st_digest)``,
        and the digest is :func:`~repro.naming.db_base.digest` of the
        rows sorted by uid: independent of the order the entries came
        in, so replicas holding equal versions agree on it.  Replicas
        holding different ones collide only with the odds the per-entry
        CRC-32 already accepts (about 2^-32), and only a collision hides
        a divergence from the comparison.
        """
        cached = self._digests.get(partition)
        if cached is None and self._members.get(partition):
            rows = sorted((str(uid), *self.server_db.entry_version(uid),
                           *self.state_db.entry_version(uid))
                          for uid in self._members[partition])
            cached = self._digests[partition] = (digest(rows), rows)
        return cached

    def partition_digests(self) -> dict[int, int]:
        """The digest of every partition this replica holds entries of."""
        return {partition: cached[0] for partition in self._members
                if (cached := self._partition(partition)) is not None}

    def diff_partitions(self, request: list[int]) -> list[Any]:
        """The anti-entropy comparison (RPC-exposed on the sync service).

        ``request`` is a :func:`diff_request`: the partitions to compare
        and the caller's digest of each of them it holds entries of.
        Returns, flat, ``[uid, sv_count, sv_digest, st_count, st_digest,
        ...]`` for every entry here in one of those partitions whose
        digest is not the caller's.  In sync that is an empty list, for
        one comparison of cached ints per partition held here: no entry
        version is computed.  Lock-free, like the version probes: an
        uncommitted ``define`` may briefly appear, and the copiers'
        snapshot reads report it ``"unknown"`` once it is gone again.
        """
        words = request[0]
        theirs = dict(zip(request[words + 1::2], request[words + 2::2]))
        reply: list[Any] = []
        for partition in self._members:
            word = partition >> 6
            if word < words and request[1 + word] >> (partition & 63) & 1:
                cached = self._partition(partition)
                if cached is not None and cached[0] != theirs.get(partition):
                    for row in cached[1]:
                        reply.extend(row)
        return reply

    def entry_versions(self, uid_text: str) -> tuple[Version, Version]:
        """The (server, state) write versions of one entry.

        Read without locks: a point-in-time lower bound.  Local
        callers only: the coherence plane stamps registrations and
        pushes with it, and shard resync compares it with a peer's.
        Equal versions mean equal content, so two replicas that
        diverged under a partial partition differ here even at equal
        counts.
        """
        uid = Uid.parse(uid_text)
        return (self.server_db.entry_version(uid),
                self.state_db.entry_version(uid))

    # -- the leased read plane ------------------------------------------------

    def read_entry_versioned(self, uid_text: str) -> Any:
        """One committed entry + write versions, no 2PC enlistment.

        The server half of the leased read plane (RPC-exposed on the
        sync service): both halves are read under a throwaway local
        probe action -- the try-locks are taken and released inside
        this one dispatch, so no lock ever spans the wire, no
        participant is enlisted, and the caller's action is never
        serialized against the entry.  Returns
        ``(sv_hosts, uses, st_hosts, (sv_version, st_version), mode)``
        -- ``mode`` is the coherence plane's pull/push verdict for the
        entry (always ``"pull"`` without a coherence host) -- or
        ``"locked"`` when a live action is mid-flight on the entry (the
        caller falls back to the authoritative locking read), or
        ``"unknown"`` when this replica disclaims the uid.
        """
        uid = Uid.parse(uid_text)
        probe = AtomicAction(node="lease-read-probe")
        try:
            snapshot = self.server_db.get_server_with_uses(probe.id.path, uid)
            view = self.state_db.get_view(probe.id.path, uid)
            versions = (self.server_db.entry_version(uid),
                        self.state_db.entry_version(uid))
            mode = ("pull" if self.coherence is None
                    else self.coherence.mode_of(uid_text))
            return (list(snapshot.hosts),
                    {host: dict(counters)
                     for host, counters in snapshot.uses.items()},
                    list(view), versions, mode)
        except (LockRefused, PromotionRefused):
            return "locked"
        except UnknownObject:
            return "unknown"
        finally:
            self.server_db.locks.release_tree(probe.id.path)
            self.state_db.locks.release_tree(probe.id.path)
            probe.run_local(probe.abort())

    def read_entry_versioned_many(self, uid_texts: list[str]) -> list[Any]:
        """Batched :meth:`read_entry_versioned` (RPC-exposed): the one
        snapshot read of replica maintenance.

        Each entry is snapshotted under its own probe locks (per-entry
        consistency, exactly like the single read); the batch only
        coalesces the round trips, so a resync copying a whole arc, or
        a migration seeding a new owner, pays one RPC per source
        instead of one per entry.
        """
        return [self.read_entry_versioned(uid_text) for uid_text in uid_texts]

    def install_entry(self, uid_text: str, sv_hosts: list[str],
                      uses: dict[str, dict[str, int]],
                      st_hosts: list[str],
                      versions: tuple[Version, Version]) -> bool:
        """Install one committed entry from a replica peer's snapshot.

        Each half lands only if the peer's write version is strictly
        greater than the local one (see the per-db ``install_entry``),
        so resync and anti-entropy can only move a replica forward, and
        an equal-count divergence converges on the greater digest.
        Returns whether anything was installed.
        """
        uid = Uid.parse(uid_text)
        sv_version, st_version = versions
        changed = self.server_db.install_entry(uid, list(sv_hosts), uses,
                                               sv_version)
        changed |= self.state_db.install_entry(uid, list(st_hosts),
                                               st_version)
        if changed and self.coherence is not None:
            # A maintenance install (resync, anti-entropy, migration)
            # moved our committed state forward: registered lessees
            # must hear about it like any committed write.
            self.coherence.note_committed([uid_text])
        return changed

    def guarded_install_entry(self, uid_text: str, sv_hosts: list[str],
                              uses: dict[str, dict[str, int]],
                              st_hosts: list[str],
                              versions: tuple[Version, Version],
                              ) -> bool | None:
        """Lock-guarded :meth:`install_entry` (RPC-exposed).

        Both halves are try-locked under a fresh probe action before
        the install: a refusal means a live local action is mid-flight
        on the entry (its undo closures must not be clobbered), and the
        caller -- shard resync or the arc-migration pipeline -- retries
        later.  Returns ``None`` when locked, otherwise
        whether the (version-gated) install changed anything.
        """
        uid = Uid.parse(uid_text)
        probe = AtomicAction(node="install-probe")
        locked = []
        try:
            for half, key in ((self.server_db, ("sv", uid)),
                              (self.state_db, ("st", uid))):
                half.locks.try_lock(probe.id, key, LockMode.WRITE)
                locked.append(half)
            return self.install_entry(uid_text, sv_hosts, uses, st_hosts,
                                      tuple(versions))
        except (LockRefused, PromotionRefused):
            return None
        finally:
            for half in locked:
                half.locks.release_all(probe.id)
            probe.run_local(probe.abort())

    def forget_entry(self, uid_text: str) -> bool | None:
        """Lock-guarded removal of an entry this shard no longer owns.

        The online-resharding garbage-collection step: after an epoch
        flip the old owners of a moved arc still hold its entries, and
        the coordinator asks them to forget.  Try-locking both halves
        first means an entry still touched by an in-flight action
        (e.g. a pre-flip write committing late) is left alone -- the
        caller retries after the action resolves.  Returns ``None``
        when locked, otherwise whether an entry was present.
        """
        uid = Uid.parse(uid_text)
        probe = AtomicAction(node="forget-probe")
        locked = []
        try:
            for half, key in ((self.server_db, ("sv", uid)),
                              (self.state_db, ("st", uid))):
                half.locks.try_lock(probe.id, key, LockMode.WRITE)
                locked.append(half)
            removed = self.server_db.forget(uid)
            removed = self.state_db.forget(uid) or removed
            if removed and self.coherence is not None:
                # Post-flip GC: we no longer own the entry, so the
                # registry and hotness state go with it.
                self.coherence.forget(uid_text)
            return removed
        except (LockRefused, PromotionRefused):
            return None
        finally:
            for half in locked:
                half.locks.release_all(probe.id)
            probe.run_local(probe.abort())

    def reset_volatile(self) -> None:
        """Crash semantics: drop all locks and undo in-flight actions."""
        self.server_db.reset_volatile()
        self.state_db.reset_volatile()
        self._touched.clear()


def _beside(parked: Generator[Any, Any, ServerEntrySnapshot],
            view: list[str]) -> Generator[Any, Any, tuple[
                ServerEntrySnapshot, list[str]]]:
    return (yield from parked), view


def diff_request(partitions: Collection[int],
                 digests: Mapping[int, int] | None = None) -> list[int]:
    """A :meth:`GroupViewDatabase.diff_partitions` argument, flat ints.

    ``[words, mask, ..., partition, digest, ...]``: the partitions to
    compare as ``words`` 64-bit mask words, then the caller's digest of
    each of them ``digests`` has.  A partition without one is a
    partition the caller holds nothing of, so the reply lists all it
    holds there -- without ``digests``, everything in ``partitions``.
    """
    mask = [0] * (max(partitions, default=-1) // 64 + 1)
    for partition in partitions:
        mask[partition >> 6] |= 1 << (partition & 63)
    digests = digests or {}
    return [len(mask), *mask, *(value for partition in partitions
                                if partition in digests
                                for value in (partition, digests[partition]))]
