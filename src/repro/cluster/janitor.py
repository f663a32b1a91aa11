"""One janitor per node: failure detection and cleanup (paper section 4.1.3).

"A crash of a client does not automatically undo changes made to the
database.  So, failure detection and cleanup protocols will be
required.  For example, the Object Server database could periodically
check if its clients are functioning, and if necessary update use lists
if crashes are detected."

Every node that hosts a participant table runs one :class:`Janitor`: a
server host over its object servers, a name node over its group-view
database.  The table's boot hook starts it, so it dies and restarts
with its node.  A *part* is what one top-level action holds in the
table -- locks, before-images, undo entries -- under its coordinator's
ref, ``node#incarnation`` (:meth:`parts`).  A part with no ref (a
same-node probe, the purge, the harness's ``(0,)``) is never judged.

Each round the janitor sends one probe to each coordinator that owns a
part older than one round: the coordinator's
:class:`~repro.actions.outcomes.Outcomes` table answers with its
incarnation and, for each serial asked about, running / committed /
aborted (a serial it does not know counts as aborted: presumed abort).
One rule then applies to each part:

- **running**: keep it;
- **committed** or **aborted**: commit or abort it to match;
- **coordinator dead** (no answer, or a later incarnation): abort it,
  which releases a read-only part -- unless its undo entries guard a
  name node's durable state.  Such a part is kept and counted once as
  ``janitor.orphaned_writes``: whether the write committed is not
  known here.

With ``purge``, a name node's janitor also asks every client named in
its use lists, in the same probe, and purges the use counts of those
that do not answer (``cleanup.clients_purged``) under a top-level
action of its own, so an entry locked by a live action is skipped
until a later round.  Janitors count what they end as
``janitor.commits`` and ``janitor.aborts``.

This is leases on lock ownership (Gray & Cheriton, SOSP 1989), with the
incarnation as the lease's generation.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction, Vote, abort_on_failure
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.outcomes import ABORTED, COMMITTED, COORDINATOR_SERVICE
from repro.actions.records import CallbackRecord
from repro.net.errors import RpcError
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process, Timeout


class Janitor:
    """Ends the parts of finished and orphaned actions in one table.

    ``table`` exposes ``parts() -> {serial: (ref, durable)}``,
    ``commit(path)`` and ``abort(path)``: a
    :class:`~repro.cluster.server_host.ServerHost` or a
    :class:`~repro.naming.group_view_db.GroupViewDatabase` (the latter
    also with ``purge``).
    """

    INTERVAL = 2.0  # sim-s between rounds

    def __init__(self, node: Any, table: Any, purge: bool = False,
                 metrics: MetricsRegistry | None = None) -> None:
        self._node = node
        self.table = table
        self.purge = purge
        self.metrics = metrics or node.metrics
        self._seen: set[int] = set()     # serials held at the last round
        self._counted: set[int] = set()  # orphaned writes already counted
        self._process: Process | None = None

    def start(self) -> "Janitor":
        self._process = self._node.spawn(self._run(), name="janitor")
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill("janitor stopped")

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.INTERVAL)
            yield from self.run_once()

    def run_once(self) -> Generator[Any, Any, list[str]]:
        """One round; returns the clients whose use counts it purged."""
        users = self._use_list_clients() if self.purge else set()
        asks: dict[str, list[int]] = {name: [] for name in users}
        parts = self.table.parts()
        for serial in sorted(self._seen & parts.keys()):
            name, sep, _ = parts[serial][0].rpartition("#")
            if sep:
                asks.setdefault(name, []).append(serial)
        self._seen = set(parts)
        self._counted &= self._seen
        calls = [(name, serials, self._node.rpc.call(
            name, COORDINATOR_SERVICE, "outcomes", serials))
            for name, serials in sorted(asks.items())]
        verdicts: dict[int, str | None] = {}  # None: the coordinator died
        silent = []
        for name, serials, call in calls:
            try:
                incarnation, statuses = yield call
            except RpcError:  # no answer: every part of it is orphaned
                silent.append(name)
                incarnation, statuses = None, [None] * len(serials)
            for serial, status in zip(serials, statuses):
                alive = parts[serial][0] == f"{name}#{incarnation}"
                verdicts[serial] = status if alive else None
        parts = self.table.parts()  # some ended while the probes flew
        for serial, status in verdicts.items():
            if serial not in parts:
                continue
            if status == COMMITTED:
                self.table.commit((serial,))
                self.metrics.counter("janitor.commits").increment()
            elif status == ABORTED or status is None and not parts[serial][1]:
                self.table.abort((serial,))
                self.metrics.counter("janitor.aborts").increment()
            elif status is None and serial not in self._counted:
                self._counted.add(serial)
                self.metrics.counter("janitor.orphaned_writes").increment()
        purged = []
        for name in silent:
            if name in users and (yield from self._purge(name)):
                purged.append(name)
        return purged

    # -- the use-list purge ----------------------------------------------------

    def _use_list_clients(self) -> set[str]:
        """Every client named in a use list, read under a probe action.

        The probe holds ordinary read locks while scanning (so it never
        observes a half-applied purge or binder write) and aborts
        afterwards -- read-only, so the abort just releases the locks.
        Locked entries are skipped and re-examined next round.
        """
        server_db = self.table.server_db
        nodes: set[str] = set()
        probe = AtomicAction(node=f"janitor@{self._node.name}")
        try:
            for uid in server_db.all_uids():
                try:
                    snapshot = server_db.get_server_with_uses(
                        probe.id.path, uid)
                except (LockRefused, PromotionRefused):
                    continue
                for counters in snapshot.uses.values():
                    nodes.update(counters)
        finally:
            server_db.abort(probe.id.path)
            probe.run_local(probe.abort())
        return nodes

    def _purge(self, client_node: str) -> Generator[Any, Any, bool]:
        """Purge one silent client's counters under a top-level action.

        ``purge_client`` skips -- does not break -- entries locked by
        live actions, and the action terminates through the standard
        two-phase machinery with the database enlisted as participant.
        Returns whether anything was purged.
        """
        db = self.table
        action = AtomicAction(node=f"janitor@{self._node.name}")
        try:
            action.add_record(CallbackRecord(
                on_prepare=lambda a: Vote(db.prepare(a.id.path)),
                on_commit=lambda a: db.commit(a.id.path),
                on_abort=lambda a: db.abort(a.id.path),
                order=600))
            if not db.purge_client(action.id.path, client_node):
                yield from action.abort()  # nothing reachable this round
                return False
            status = yield from action.commit()
        except BaseException:
            # Abort-on-failure: this top-level action must terminate on
            # every exit path (BaseException, so a killed janitor still
            # releases the purge's write locks on its way down).
            yield from abort_on_failure(action)
            raise
        if status.value != "committed":
            return False
        self.metrics.counter("cleanup.clients_purged").increment()
        return True
