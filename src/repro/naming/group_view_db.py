"""The combined group-view database.

The paper's concluding remarks: "The two databases have been
implemented as a single Arjuna object, referred to as the group view
database."  This class hosts an
:class:`~repro.naming.object_server_db.ObjectServerDatabase` and an
:class:`~repro.naming.object_state_db.ObjectStateDatabase` behind one
service interface and one two-phase-commit participant.  Entries remain
independently concurrency-controlled (the lock resources are keyed
``("sv", uid)`` and ``("st", uid)``).

Action ids arrive as path tuples (the RPC wire form); every method is
safe to expose as an RPC service.

Beyond the paper's surface, the database serves the *leased read
plane* and the batched replica-maintenance protocol on the sync
service: :meth:`read_entry_versioned` (a committed snapshot plus write
versions under probe locks that never span the wire, no 2PC
enlistment) and the coalesced :meth:`entry_versions_many` /
:meth:`read_entry_versioned_many` round trips that anti-entropy,
resync, and read-repair batch their per-entry traffic into.
"""

from __future__ import annotations

from typing import Any

from repro.actions.action import ActionId, AtomicAction
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.locks import LockMode
from repro.naming.db_base import ActionPath, _is_prefix
from repro.naming.errors import UnknownObject
from repro.naming.object_server_db import ObjectServerDatabase, ServerEntrySnapshot
from repro.naming.object_state_db import ObjectStateDatabase
from repro.net.batch import demux
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid

SERVICE_NAME = "group_view_db"

# The replica-internal side door: shard hosts serve the same database
# under this second name for resync, anti-entropy, arc migration, and
# read-repair.  Recovery gating (pulling a stale host out of the
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

    # Opt in to the RPC layer stamping the calling host before each
    # dispatch (see RpcAgent._execute): commits bump the per-entry
    # vector clock under the *writer's* identity, and every replica of
    # an entry sees the same coordinator host for the same action, so
    # identical commit histories always produce identical clocks.
    accepts_rpc_caller = True

    def __init__(self, use_exclude_write_lock: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        shared_metrics = metrics or MetricsRegistry()
        self.server_db = ObjectServerDatabase(metrics=shared_metrics)
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
        # Writer host of the RPC currently being dispatched ("" for
        # local calls, e.g. boot-time restore commits -- identical on
        # every replica, so clocks still agree).
        self.rpc_caller = ""
        # Per-entry vector clocks: uid_text -> {writer_host: commits}.
        # Volatile alongside locks and undo logs -- a recovered replica
        # restarts at the empty clock, which is dominated by every
        # peer's, so repair always pulls toward the survivors.
        self._vclocks: dict[str, dict[str, int]] = {}

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
        if committed and resolved:
            seen: set[str] = set()
            uids = [u for u in resolved if not (u in seen or seen.add(u))]
            writer = self.rpc_caller or "local"
            for uid_text in uids:
                clock = self._vclocks.setdefault(uid_text, {})
                clock[writer] = clock.get(writer, 0) + 1
            if self.coherence is not None:
                self.coherence.note_committed(uids)

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
        goes on to ``Increment``: it takes the ``Sv`` *write* lock and
        gets the use lists too.  ``view_path`` (the client action) takes
        the ``St`` read lock, first, as there.
        """
        uid = Uid.parse(uid_text)
        view = self.state_db.get_view(view_path, uid)
        return self.server_db.get_server_with_uses(action_path, uid,
                                                   for_update=True), view

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

    # -- liveness probe used by binding/cleanup protocols ---------------------------

    def ping(self) -> str:
        return "pong"

    # -- shard resync support -------------------------------------------------------

    def list_uids(self) -> list[str]:
        """Every UID with an entry in either half (RPC-exposed).

        Lock-free: enumerating keys is safe (an uncommitted ``define``
        may briefly appear, but the copiers' snapshot reads take the
        entry's locks and report ``"unknown"`` for one gone again).
        """
        uids = {str(uid) for uid in self.server_db.all_uids()}
        uids.update(str(uid) for uid in self.state_db.all_uids())
        return sorted(uids)

    def entry_versions(self, uid_text: str) -> tuple[int, int]:
        """The (server, state) write versions of one entry (RPC-exposed).

        Plain monotonic counters read without locks: a point-in-time
        lower bound.  Lease renewal compares it with the versions a
        cached snapshot was taken at.
        """
        uid = Uid.parse(uid_text)
        return (self.server_db.entry_version(uid),
                self.state_db.entry_version(uid))

    def entry_versions_many(self, uid_texts: list[str],
                            ) -> list[tuple[int, int]]:
        """Batched :meth:`entry_versions` (RPC-exposed): ``probe_many``.

        One round trip per node is the only version probe replica
        maintenance (resync, anti-entropy, migration, read-repair)
        sends.  Exactly like the single probe, each value is a
        point-in-time lower bound a version-gated install re-checks
        under locks before anything lands.
        """
        return [self.entry_versions(uid_text) for uid_text in uid_texts]

    def entry_clock(self, uid_text: str) -> dict[str, int]:
        """The entry's vector clock (RPC-exposed), ``{writer: commits}``.

        Scalar versions bump identically on every replica of a committed
        action, so two replicas that diverged under a partial partition
        present *equal* versions with different content.  The clock is
        the tie-breaker: identical commit histories produce identical
        clocks, so a clock mismatch at equal scalars *is* divergence.
        """
        return dict(self._vclocks.get(uid_text, {}))

    def entry_clocks_many(self, uid_texts: list[str]) -> list[dict[str, int]]:
        """Batched :meth:`entry_clock` (RPC-exposed): one round trip per
        sweep, same as the scalar ``entry_versions_many``."""
        return [self.entry_clock(uid_text) for uid_text in uid_texts]

    # -- the leased read plane ------------------------------------------------

    def read_entry_versioned(self, uid_text: str) -> Any:
        """One committed entry + write versions, no 2PC enlistment.

        The server half of the leased read plane (RPC-exposed on the
        sync service): both halves are read under a throwaway local
        probe action -- the try-locks are taken and released inside
        this one dispatch, so no lock ever spans the wire, no
        participant is enlisted, and the caller's action is never
        serialized against the entry.  Returns
        ``(sv_hosts, uses, st_hosts, (sv_version, st_version), mode,
        vclock)`` -- ``mode`` is the coherence plane's pull/push verdict
        for the entry (always ``"pull"`` without a coherence host),
        ``vclock`` its per-writer commit clock -- or
        ``"locked"`` when a live action is mid-flight on the entry (the
        caller falls back to the authoritative locking read), or
        ``"unknown"`` when this replica disclaims the uid.
        """
        uid = Uid.parse(uid_text)
        probe = AtomicAction(node="lease-read-probe")
        # The databases key lock owners by bare path (the RPC wire
        # form), so the release must use the same node-less identity.
        # (ignore below: the probe holds no locks until inside the
        # try/finally; building the owner id cannot leak anything.)
        owner = ActionId(probe.id.path)  # repro: ignore[action-leak]
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
                    list(view), versions, mode,
                    dict(self._vclocks.get(uid_text, {})))
        except (LockRefused, PromotionRefused):
            return "locked"
        except UnknownObject:
            return "unknown"
        finally:
            self.server_db.locks.release_all(owner)
            self.state_db.locks.release_all(owner)
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
                      versions: tuple[int, int],
                      vclock: dict[str, int] | None = None,
                      force: bool = False) -> bool:
        """Install one committed entry from a replica peer's snapshot.

        Each half lands only if the peer's write version is strictly
        ahead of the local one (see the per-db ``install_entry``), so
        resync and anti-entropy can only move a replica forward.
        ``force`` bypasses the scalar gate for vector-clock divergence
        repair.  When the copy lands, ``vclock`` is merged into the
        local clock pointwise (max per writer), so the clock always
        covers the content.  Returns whether anything was installed.
        """
        uid = Uid.parse(uid_text)
        sv_version, st_version = versions
        changed = self.server_db.install_entry(uid, list(sv_hosts), uses,
                                               sv_version, force=force)
        changed |= self.state_db.install_entry(uid, list(st_hosts),
                                               st_version, force=force)
        if changed and vclock:
            clock = self._vclocks.setdefault(uid_text, {})
            for writer, count in vclock.items():
                if count > clock.get(writer, 0):
                    clock[writer] = count
        if changed and self.coherence is not None:
            # A maintenance install (resync, migration, read-repair)
            # moved our committed state forward: registered lessees
            # must hear about it like any committed write.
            self.coherence.note_committed([uid_text])
        return changed

    def guarded_install_entry(self, uid_text: str, sv_hosts: list[str],
                              uses: dict[str, dict[str, int]],
                              st_hosts: list[str],
                              versions: tuple[int, int],
                              vclock: dict[str, int] | None = None,
                              force: bool = False) -> bool | None:
        """Lock-guarded :meth:`install_entry` (RPC-exposed).

        Both halves are try-locked under a fresh probe action before
        the install: a refusal means a live local action is mid-flight
        on the entry (its undo closures must not be clobbered), and the
        caller -- shard resync, the arc-migration pipeline, read-repair
        -- retries later.  Returns ``None`` when locked, otherwise
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
                                      tuple(versions), vclock=vclock,
                                      force=force)
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
            self._vclocks.pop(uid_text, None)
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
        # Vector clocks are volatile too: a recovered replica restarts
        # at the empty clock, dominated by every peer's, so repair
        # pulls it toward the survivors rather than trusting it.
        self._vclocks.clear()
        self.rpc_caller = ""
