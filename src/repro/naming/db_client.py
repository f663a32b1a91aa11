"""Client-side adapter for the group-view database.

Wraps the RPC surface of
:class:`~repro.naming.group_view_db.GroupViewDatabase` in generator
methods usable from simulation processes, translates remote errors back
into their naming/locking exception types, and automatically enlists
the database as a two-phase-commit participant of the calling action's
top-level root -- once per top-level action, forgotten again when that
action resolves.  The database is never asked to vote: a write it
acknowledged was its vote and a read leaves it nothing to vote on, so
the participant record sends no ``prepare`` and tells it the outcome in
the servers' fan-out, after the stores have promoted their shadows --
the locks it holds for the action outlive the promotion.

Calls issued on behalf of a captured ring view carry its fence token
(``ring_epoch``); the replica-copy read protocol itself lives in
:mod:`repro.naming.replica_io`, the one engine every replica-plane
consumer shares.
"""

from __future__ import annotations

import functools
from typing import Any, Generator

from repro.actions.action import AtomicAction
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.records import ToldParticipantRecord
from repro.naming.errors import NamingError, NotQuiescent, UnknownObject
from repro.naming.group_view_db import SERVICE_NAME
from repro.naming.object_server_db import ServerEntrySnapshot
from repro.net.batch import CommitBatcher
from repro.net.errors import RpcError, RpcRemoteError
from repro.net.rpc import RpcAgent
from repro.storage.uid import Uid

_ERROR_TYPES = {
    "LockRefused": LockRefused,
    "PromotionRefused": PromotionRefused,
    "NotQuiescent": NotQuiescent,
    "UnknownObject": UnknownObject,
}


def raise_mapped(error: RpcRemoteError) -> None:
    """Re-raise a remote db error as its local exception type."""
    exc_type = _ERROR_TYPES.get(error.remote_type)
    if exc_type is not None:
        raise exc_type(error.remote_message) from None
    raise error


class GroupViewDbClient:
    """Generator-style proxy to the (remote) group-view database.

    ``batcher`` (the owning node's commit batcher, when the deployment
    arms commit batching) is handed to the participant records this
    client enlists, so their 2PC phase traffic rides the batched commit
    plane; the provisional operations themselves stay unbatched -- they
    are latency-bound request/reply pairs, not fan-out.

    ``participant_retries``/``retry_rng`` bound the re-sends of those
    records' ``commit`` (see
    :class:`~repro.actions.records.ToldParticipantRecord`): seeded-jitter
    retries so a *gray* shard's dropped outcome message does not leak
    the action's locks there.  The default sends it once.
    """

    def __init__(self, rpc: RpcAgent, db_node: str,
                 service: str = SERVICE_NAME,
                 batcher: "CommitBatcher | None" = None,
                 participant_retries: int = 0,
                 retry_rng: Any | None = None) -> None:
        self._rpc = rpc
        self._batcher = batcher
        self.db_node = db_node
        self.service = service
        self.participant_retries = participant_retries
        self._retry_rng = retry_rng
        # Top-level serial -> the record enlisted for that root, from
        # enlistment until the record's commit or abort.
        self._participants: dict[int, ToldParticipantRecord] = {}

    # -- enlistment ----------------------------------------------------------

    @staticmethod
    def _root(action: AtomicAction) -> AtomicAction:
        root = action
        while root.parent is not None:
            root = root.parent
        return root

    def enlist(self, action: AtomicAction) -> None:
        """Make the db a 2PC participant of the action's top-level root."""
        root = self._root(action)
        serial = root.id.top_level_serial
        record = self._participants.get(serial)
        if record is None:
            record = ToldParticipantRecord(
                self._rpc, self.db_node, self.service,
                batcher=self._batcher, retries=self.participant_retries,
                rng=self._retry_rng,
                on_resolved=functools.partial(self._participants.pop,
                                              serial, None))
            root.add_record(record)
            self._participants[serial] = record

    def is_enlisted(self, action: AtomicAction) -> bool:
        """Whether this shard participates in the action's (live) root."""
        return self._root(action).id.top_level_serial in self._participants

    def abort_stray(self, action: AtomicAction) -> None:
        """Presumed abort for an op whose RPC failed before enlistment.

        A timed-out request to a *live but queued* shard still executes
        when the queue drains; without a participant record nothing
        would ever release the stray op's locks or undo its provisional
        write.  Firing a best-effort ``abort`` (no reply awaited) closes
        that hole: the shard's single-server queue is FIFO, so the abort
        lands after any stray op of this root and rolls it back, and on
        a genuinely crashed shard both requests simply die.  (A latency
        model that reorders messages can still strand a stray -- the
        same residue presumed-abort leaves real systems, where an
        orphan terminator picks it up.)
        """
        self._rpc.call(self.db_node, self.service, "abort",
                       self._root(action).id.path)

    # -- calls ----------------------------------------------------------------

    def call_enlisted(self, action: AtomicAction, method: str, *args: Any,
                      ring_epoch: int | None = None,
                      view_action: AtomicAction | None = None,
                      ) -> Generator[Any, Any, Any]:
        """One db operation with eager enlistment (the single-home path).

        Enlisting *before* the call means even a timed-out operation
        leaves the shard a participant, so the caller's abort reaches it
        and releases any locks the lost reply concealed.  That is the
        right trade when the shard is the entry's only home; the
        replicated path uses :meth:`call_reached` instead.  A fencing
        rejection (``StaleRingEpoch``) leaves the shard enlisted but is
        harmless: the rejected request never executed, and an abort to
        an untouched participant is a no-op.

        ``view_action`` is :meth:`call_reached`'s; only ``action`` is
        enlisted eagerly.  A ``view_action`` the shard was
        not seen to reach gets the presumed abort instead, so a dark
        shard costs the caller one abort round trip, not one per root.
        """
        self.enlist(action)
        try:
            return (yield from self.call_reached(
                action, method, *args, ring_epoch=ring_epoch,
                view_action=view_action))
        except RpcError:
            if view_action is not None and not self.is_enlisted(view_action):
                self.abort_stray(view_action)
            raise

    def call_reached(self, action: AtomicAction, method: str, *args: Any,
                     ring_epoch: int | None = None,
                     view_action: AtomicAction | None = None,
                     ) -> Generator[Any, Any, Any]:
        """One db operation, enlisting the shard only if it was *reached*.

        The replicated write path must skip crashed replicas without
        dooming the action, so a shard becomes a 2PC participant only
        once an RPC demonstrably reached it: on success, and on mapped
        database errors (``LockRefused`` and friends prove the shard
        executed the request and may hold this action's earlier locks,
        which termination must release).  An unreachable shard -- RPC
        timeout, or no service registered because the host is mid-resync
        -- raises without enlisting, letting the caller fail over; so
        does a fencing rejection (the server refused before dispatch,
        so it holds nothing of this action's).

        ``view_action`` is a second action the operation takes locks
        under (see :meth:`get_binding_with_uses`): a shard that was
        reached is enlisted for its root too.
        """
        try:
            result = yield self._rpc.call(self.db_node, self.service, method,
                                          action.id.path, *args,
                                          ring_epoch=ring_epoch)
        except RpcRemoteError as exc:
            if exc.remote_type in _ERROR_TYPES:
                self._enlist_reached(action, view_action)
            raise_mapped(exc)
        self._enlist_reached(action, view_action)
        return result

    def _enlist_reached(self, action: AtomicAction,
                        view_action: AtomicAction | None) -> None:
        if view_action is not None:
            self.enlist(view_action)
        self.enlist(action)

    def define_object(self, action: AtomicAction, uid: Uid, sv_hosts: list[str],
                      st_hosts: list[str]) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "define_object", str(uid),
                                      list(sv_hosts), list(st_hosts))

    def get_binding(self, action: AtomicAction, uid: Uid,
                    view_action: AtomicAction,
                    ) -> Generator[Any, Any, tuple[list[str], list[str]]]:
        """``(Sv, St)`` of one entry in one round trip: ``Sv`` is read
        under ``action``, ``St`` under ``view_action`` (the client
        action, whose read lock a commit-time Exclude promotes)."""
        return (yield from self.call_enlisted(
            action, "get_binding", str(uid), view_action.id.path))

    def get_binding_with_uses(
            self, action: AtomicAction, uid: Uid, view_action: AtomicAction,
            ) -> Generator[Any, Any, tuple[ServerEntrySnapshot, list[str]]]:
        """``(Sv with use lists, St)`` in one round trip, for the
        use-list schemes: ``Sv`` is *write*-locked under ``action`` (an
        independent top-level action), ``St`` read-locked under
        ``view_action``.  Two roots hold locks here afterwards, so the
        db is enlisted for both -- each root's ``commit`` releases its
        own."""
        return (yield from self.call_enlisted(
            action, "get_binding_with_uses", str(uid), view_action.id.path,
            view_action=view_action))

    def get_server_with_uses(self, action: AtomicAction, uid: Uid,
                             for_update: bool = False,
                             ) -> Generator[Any, Any, ServerEntrySnapshot]:
        return (yield from self.call_enlisted(
            action, "get_server_with_uses", str(uid), for_update))

    def insert(self, action: AtomicAction, uid: Uid,
               host: str) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "insert", str(uid), host)

    def remove(self, action: AtomicAction, uid: Uid,
               host: str) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "remove", str(uid), host)

    def increment(self, action: AtomicAction, client_node: str, uid: Uid,
                  hosts: list[str]) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "increment", client_node,
                                      str(uid), list(hosts))

    def decrement(self, action: AtomicAction, client_node: str, uid: Uid,
                  hosts: list[str]) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "decrement", client_node,
                                      str(uid), list(hosts))

    def get_view(self, action: AtomicAction,
                 uid: Uid) -> Generator[Any, Any, list[str]]:
        return (yield from self.call_enlisted(action, "get_view", str(uid)))

    def exclude(self, action: AtomicAction,
                exclusions: list[tuple[Uid, list[str]]],
                ring_epoch: int | None = None) -> Generator[Any, Any, None]:
        wire = [(str(uid), list(hosts)) for uid, hosts in exclusions]
        yield from self.call_enlisted(action, "exclude", wire,
                                      ring_epoch=ring_epoch)

    def include(self, action: AtomicAction, uid: Uid,
                host: str) -> Generator[Any, Any, None]:
        yield from self.call_enlisted(action, "include", str(uid), host)

    # -- the leased read plane (no action, no enlistment) ----------------------

    def read_entry_versioned(self, uid_text: str,
                             ring_epoch: int | None = None,
                             ) -> Generator[Any, Any, Any]:
        """One committed snapshot + versions, outside any action.

        The client half of the leased read plane: no participant is
        enlisted and no lock spans the wire (the server takes and
        releases probe locks inside the dispatch).  ``ring_epoch``
        tags the request for epoch fencing when the call rides the
        fenced client service.  Returns the wire tuple, or the
        ``"locked"``/``"unknown"`` markers; RPC failures (and fencing
        rejections) propagate so the caller can fail over.
        """
        return (yield self._rpc.call(self.db_node, self.service,
                                     "read_entry_versioned", uid_text,
                                     ring_epoch=ring_epoch))

    def ping(self) -> Generator[Any, Any, bool]:
        try:
            answer = yield self._rpc.call(self.db_node, self.service, "ping")
        except RpcError:
            return False
        return answer == "pong"
