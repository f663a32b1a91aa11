"""What a coordinator remembers of its actions, for participants' janitors.

A participant that holds part of an action -- locks, before-images,
undo entries -- cannot tell on its own whether the action is still
running.  Its janitor (:mod:`repro.cluster.janitor`) asks the node that
coordinates the action.  Every node serves the answer as the
:data:`COORDINATOR_SERVICE`, one fresh :class:`Outcomes` table per
boot, so a restart forgets everything and answers with a later
incarnation.

The table follows presumed abort.  It remembers a top-level action from
the moment one of its participants is enlisted until its outcome has
reached every participant.  An aborted action, and a committed one
whose every phase-2 message was acknowledged, are forgotten: a serial
the table does not know counts as aborted.  Only a committed action
some participant did not acknowledge is kept, so a janitor that asks
later still hears "committed".

The table also counts the uses this node's binding schemes hold, per
uid and server host: a use counts from the moment its ``Increment`` is
sent until its ``Decrement``'s action has an outcome (or the
``Increment``'s action aborts).  A name node's janitor lowers its use
lists to these counts; a restart forgets them, so a crashed client's
old uses count 0.

:class:`RefPath` is how a participant learns whom to ask: the action
path on the wire, carrying the coordinator's ``node#incarnation``.
"""

from __future__ import annotations

from collections import Counter

from repro.actions.action import AtomicAction
from repro.actions.records import CallbackRecord

COORDINATOR_SERVICE = "coordinator"

RUNNING, COMMITTED, ABORTED = "running", "committed", "aborted"


class RefPath(tuple):
    """An action path as sent to a participant that locks for it.

    It equals, hashes and slices as the bare path; ``ref`` names the
    ``node#incarnation`` coordinating the action, and the participant's
    lock owner carries it (``ActionDatabase._lock``).  Built as
    ``RefPath(path)`` with ``ref`` set after: no python-level
    constructor runs on the naming hot path.
    """

    ref = ""


class Outcomes:
    """A node's table of the top-level actions it coordinates, served
    as :data:`COORDINATOR_SERVICE`.  One object per node, emptied at
    every boot (:meth:`boot`), so whoever holds it sees the current
    incarnation."""

    def __init__(self, node: str) -> None:
        self.node = node
        self.boot(0)

    def boot(self, incarnation: int) -> None:
        self.incarnation = incarnation
        self.ref = f"{self.node}#{incarnation}"
        self._live: set[int] = set()
        self._committed: set[int] = set()
        self._uses: Counter[tuple[str, str]] = Counter()  # (uid, host)

    def track(self, root: AtomicAction) -> None:
        """Remember ``root`` until its outcome has reached everyone."""
        serial = root.id.path[0]
        if serial in self._live:
            return
        # Ordered after every participant's phase 2, so it sees each
        # participant that did not acknowledge the outcome.
        root.add_record(CallbackRecord(on_commit=self._ended,
                                       on_abort=self._ended, order=10_000))
        self._live.add(serial)

    def hold(self, action: AtomicAction, uid: str, hosts: list[str],
             ending: bool = False) -> None:
        """Count a use of ``uid`` on each of ``hosts`` from now, as
        ``action`` is about to send its ``Increment``, until it aborts;
        or (``ending``) stop counting it once ``action``, about to send
        the ``Decrement``, commits or aborts."""
        uses, keys = self._uses, [(uid, host) for host in hosts]
        if not ending:
            uses.update(keys)
        drop = lambda _root: uses.subtract(keys)
        action.add_record(CallbackRecord(on_commit=drop if ending else None,
                                         on_abort=drop, order=10_000))

    def path(self, action: AtomicAction) -> RefPath:
        """``action``'s path as this node sends it to a participant."""
        wire = RefPath(action.id.path)
        wire.ref = self.ref
        return wire

    def _ended(self, root: AtomicAction) -> None:
        """Forget ``root``, unless it committed and some participant
        did not acknowledge (an abort records no failures)."""
        self._live.discard(root.id.path[0])
        if root.commit_failures:
            self._committed.add(root.id.path[0])

    def outcomes(self, serials: list[int], uids: list[str] | None = None,
                 ) -> tuple:
        """The probe (RPC-exposed): this incarnation, and the status of
        each top-level serial asked about.  A committing action is still
        running: its own phase 2 carries the outcome, after the stores
        have promoted.  With ``uids``, a third item: the uses held of
        each, ``{host: count}``."""
        statuses = [COMMITTED if serial in self._committed
                    else RUNNING if serial in self._live else ABORTED
                    for serial in serials]
        if uids is None:
            return self.incarnation, statuses
        return self.incarnation, statuses, [
            {host: n for (held, host), n in self._uses.items()
             if held == uid and n > 0} for uid in uids]
