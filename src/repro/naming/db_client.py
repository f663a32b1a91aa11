"""One name-service node's connection: enlistment, calls, error mapping.

:class:`GroupViewDbClient` is the per-node half of the naming client, its
connection: it issues one
:class:`~repro.naming.group_view_db.GroupViewDatabase` RPC on one node,
translates remote errors back into their naming/locking exception
types, and enlists the node as a two-phase-commit participant of the
calling action's top-level root -- once per top-level action, forgotten
again when that action resolves.  The database is never asked to vote:
a write it acknowledged was its vote and a read leaves it nothing to
vote on, so the participant record sends no ``prepare`` and tells it
the outcome in the servers' fan-out, after the stores have promoted
their shadows -- the locks it holds for the action outlive the
promotion.

It defines no naming verb.  Every deployment's binding schemes,
replication policies and recovery daemons speak to the name service
through :class:`~repro.naming.sharded_client.ShardedGroupViewDbClient`,
whose :class:`~repro.naming.replica_io.ReplicaIO` engine routes each
verb and builds one connection per node it reaches
(:meth:`~repro.naming.replica_io.ReplicaIO.client_for`).  Calls issued
on behalf of a captured ring view carry its fence token
(``ring_epoch``), which a fenced service checks and any other ignores.
"""

from __future__ import annotations

import functools
from typing import Any, Generator

from repro.actions.action import AtomicAction
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.outcomes import COORDINATOR_SERVICE
from repro.actions.records import ToldParticipantRecord
from repro.naming.errors import NotQuiescent, UnknownObject
from repro.naming.group_view_db import SERVICE_NAME
from repro.net.batch import CommitBatcher
from repro.net.errors import RpcRemoteError
from repro.net.rpc import RpcAgent
from repro.sim.futures import Future

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
    """Generator-style connection to one node's group-view database.

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

    def __init__(self, rpc: RpcAgent, node: str,
                 batcher: "CommitBatcher | None" = None,
                 participant_retries: int = 0,
                 retry_rng: Any | None = None) -> None:
        self._rpc = rpc
        self._batcher = batcher
        self.node = node
        self.participant_retries = participant_retries
        self._retry_rng = retry_rng
        # The node's outcome table: tracks what it coordinates and names
        # it in every path sent.
        self._outcomes = rpc.service(COORDINATOR_SERVICE)
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
        """Make the db a 2PC participant of the action's top-level root,
        which this node's outcome table then remembers (the janitor at
        the db asks about it)."""
        root = self._root(action)
        serial = root.id.top_level_serial
        record = self._participants.get(serial)
        if record is None:
            self._outcomes.track(root)
            record = ToldParticipantRecord(
                self._rpc, self.node, SERVICE_NAME,
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
        self._rpc.call(self.node, SERVICE_NAME, "abort",
                       self._root(action).id.path)

    # -- calls ----------------------------------------------------------------

    def call_enlisted(self, action: AtomicAction, method: str, *args: Any,
                      ring_epoch: int | None = None,
                      view_action: AtomicAction | None = None,
                      ) -> Generator[Any, Any, Any]:
        """One db operation with eager enlistment (the single-home path).

        Enlisting *before* the call means even a timed-out operation
        leaves the node a participant, so the caller's abort reaches it
        and releases any locks the lost reply concealed.  That is the
        right trade when the node is the entry's only home; the
        replicated path uses :meth:`call_reached` instead.  A fencing
        rejection (``StaleRingEpoch``) leaves the node enlisted but is
        harmless: the rejected request never executed, and an abort to
        an untouched participant is a no-op.

        ``view_action`` is :meth:`call_reached`'s; only ``action`` is
        enlisted eagerly.  A ``view_action`` the node was not seen to
        reach is the caller's to presume aborted (``ReplicaIO``'s walk
        does, once per failed call).
        """
        self.enlist(action)
        return (yield from self._call(action, method, args, ring_epoch,
                                      (view_action,)))

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
        under (a bind's ``St`` read, see
        :meth:`GroupViewDatabase.get_binding`): a shard that was reached
        is enlisted for its root too.

        The path goes out as a :class:`~repro.actions.outcomes.RefPath`
        naming this node's incarnation: the locks it takes there carry
        it, so the db's janitor knows whom to ask about them.
        """
        return (yield from self._call(action, method, args, ring_epoch,
                                      (view_action, action)))

    def _call(self, action: AtomicAction, method: str, args: tuple,
              ring_epoch: int | None,
              reached: tuple[AtomicAction | None, ...],
              ) -> Generator[Any, Any, Any]:
        """Send one operation; enlist the ``reached`` actions once the
        node is seen to have executed it."""
        try:
            result = yield self._rpc.call(self.node, SERVICE_NAME, method,
                                          self._outcomes.path(action), *args,
                                          ring_epoch=ring_epoch)
        except RpcRemoteError as exc:
            if exc.remote_type in _ERROR_TYPES:
                self._enlist(reached)
            raise_mapped(exc)
        self._enlist(reached)
        return result

    def _enlist(self, actions: tuple[AtomicAction | None, ...]) -> None:
        for action in actions:
            if action is not None:
                self.enlist(action)

    # -- the leased read plane (no action, no enlistment) ----------------------

    def read_entry_versioned(self, uid_text: str,
                             ring_epoch: int | None = None) -> Future:
        """One committed snapshot + versions, outside any action.

        The client half of the leased read plane: no participant is
        enlisted and no lock spans the wire (the server takes and
        releases probe locks inside the dispatch).  ``ring_epoch``
        tags the request for epoch fencing when the call rides the
        fenced client service.  Returns the reply future rather than
        waiting on it, so the caller can race it against another
        replica's: it resolves with the wire tuple or the
        ``"locked"``/``"unknown"`` markers, and fails with the RPC
        error (or fencing rejection) the caller fails over on.
        """
        return self._rpc.call(self.node, SERVICE_NAME,
                              "read_entry_versioned", uid_text,
                              ring_epoch=ring_epoch)
