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
same-node probe, the use-count repair, the harness's
``(0,)``) is never judged.

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

A name node's janitor also reconciles its use lists with their clients
(:meth:`~repro.naming.group_view_db.GroupViewDatabase.use_counts`).
An entry whose counts stood at one write version a round ago and still
do is asked about, in the same probe, of every client its use lists
name; the client's table answers the uses it holds of it.  Under a
top-level action of its own the janitor then lowers -- never raises --
each counter to that answer, and only while the entry is unlocked and
still at that version (``janitor.uses_lowered``).  A silent client
answers nothing and so holds nothing.  An Increment or Decrement in
flight moves the version or holds a lock, so it is never undone, and an
entry written within a round is not asked about at all.  The section-5
variant's non-atomic server offers no counts: it cannot be repaired.
Janitors count what they end as ``janitor.commits`` and
``janitor.aborts``.

This is leases on lock ownership and on use (Gray & Cheriton, SOSP
1989), with the incarnation as the lease's generation.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction, Vote, abort_on_failure
from repro.actions.outcomes import ABORTED, COMMITTED, COORDINATOR_SERVICE
from repro.actions.records import CallbackRecord
from repro.naming.db_base import Version
from repro.net.errors import RpcError
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process, Timeout


class Janitor:
    """Ends the parts of finished and orphaned actions in one table.

    ``table`` exposes ``parts() -> {serial: (ref, durable)}``,
    ``commit(path)`` and ``abort(path)``: a
    :class:`~repro.cluster.server_host.ServerHost` or a
    :class:`~repro.naming.group_view_db.GroupViewDatabase`, whose
    ``use_counts`` and ``lower_uses`` the janitor also reconciles.
    """

    INTERVAL = 2.0  # sim-s between rounds

    def __init__(self, node: Any, table: Any,
                 metrics: MetricsRegistry | None = None) -> None:
        self._node = node
        self.table = table
        self.metrics = metrics or node.metrics
        self._seen: set[int] = set()     # serials held at the last round
        self._counted: set[int] = set()  # orphaned writes already counted
        # Entries with use counts at the last round, at their version.
        self._uses_seen: dict[str, Version] = {}
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

    def run_once(self) -> Generator[Any, Any, int]:
        """One round; returns how many entries' use counts it lowered."""
        parts = self.table.parts()
        counts = getattr(self.table, "use_counts", dict)()
        asks: dict[str, tuple[list[int], list[str]]] = {}
        for serial in sorted(self._seen & parts.keys()):
            name, sep, _ = parts[serial][0].rpartition("#")
            if sep:
                asks.setdefault(name, ([], []))[0].append(serial)
        for uid, (version, clients) in sorted(counts.items()):
            if self._uses_seen.get(uid) == version:
                for name in sorted(clients):
                    asks.setdefault(name, ([], []))[1].append(uid)
        self._seen = set(parts)
        self._counted &= self._seen
        self._uses_seen = {uid: seen[0] for uid, seen in counts.items()}
        calls = [(name, serials, uids, self._node.rpc.call(
            name, COORDINATOR_SERVICE, "outcomes", serials,
            *([uids] if uids else [])))
            for name, (serials, uids) in sorted(asks.items())]
        verdicts: dict[int, str | None] = {}  # None: the coordinator died
        held: dict[str, dict[str, dict[str, int]]] = {}  # uid: client: uses
        for name, serials, uids, call in calls:
            try:
                incarnation, statuses, *answer = yield call
            except RpcError:  # no answer: every part orphaned, no use held
                incarnation, statuses = None, [None] * len(serials)
                answer = [[{}] * len(uids)]
            for serial, status in zip(serials, statuses):
                alive = parts[serial][0] == f"{name}#{incarnation}"
                verdicts[serial] = status if alive else None
            for uid, uses in zip(uids, answer[0] if answer else ()):
                held.setdefault(uid, {})[name] = uses
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
        if not held:
            return 0
        return (yield from self._lower(held, counts))

    def _lower(self, held: dict[str, dict[str, dict[str, int]]],
               counts: dict[str, tuple[Version, set[str]]],
               ) -> Generator[Any, Any, int]:
        """Lower the asked entries' counts to ``held`` under a top-level
        action of the janitor's own.

        ``lower_uses`` skips -- does not break -- an entry a live
        action has locked or written since the scan, and the action
        terminates through the standard two-phase machinery with the
        database enlisted as participant.
        """
        db = self.table
        action = AtomicAction(node=f"janitor@{self._node.name}")
        try:
            action.add_record(CallbackRecord(
                on_prepare=lambda a: Vote(db.prepare(a.id.path)),
                on_commit=lambda a: db.commit(a.id.path),
                on_abort=lambda a: db.abort(a.id.path),
                order=600))
            lowered = sum(db.lower_uses(action.id.path, uid, counts[uid][0],
                                        clients)
                          for uid, clients in sorted(held.items()))
            if not lowered:
                yield from action.abort()  # nothing to lower this round
                return 0
            yield from action.commit()  # a local participant: it commits
        except BaseException:
            # Abort-on-failure: this top-level action must terminate on
            # every exit path (BaseException, so a killed janitor still
            # releases its write locks on its way down).
            yield from abort_on_failure(action)
            raise
        self.metrics.counter("janitor.uses_lowered").increment(lowered)
        return lowered
