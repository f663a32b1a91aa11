"""Failure detection and use-list cleanup.

The paper (section 4.1.3): "a crash of a client does not automatically
undo changes made to the database.  So, failure detection and cleanup
protocols will be required.  For example, the Object Server database
could periodically check if its clients are functioning, and if
necessary update use lists if crashes are detected."

:class:`UseListCleaner` is that protocol: a daemon colocated with the
group-view database.  Each round it collects every client node that
appears in a use list, pings it over RPC, and purges the counters of
clients that do not answer -- under a top-level atomic action, so a
concurrently-locked entry is simply retried next round.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction, Vote, abort_on_failure
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.records import CallbackRecord
from repro.naming.group_view_db import GroupViewDatabase
from repro.net.errors import RpcError
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process, Timeout
from repro.sim.scheduler import Scheduler


class UseListCleaner:
    """Periodic liveness-probe cleanup of the server db's use lists."""

    def __init__(
        self,
        scheduler: Scheduler,
        rpc: RpcAgent,
        db: GroupViewDatabase,
        interval: float = 5.0,
        client_service: str = "client",
        node_name: str = "cleaner",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._rpc = rpc
        self._db = db
        self.interval = interval
        self.client_service = client_service
        self.node_name = node_name
        self.metrics = metrics or MetricsRegistry()
        self._process: Process | None = None
        self.rounds = 0
        self.clients_purged = 0

    def start(self) -> None:
        if self._process is not None and not self._process.done:
            return
        self._process = self._scheduler.spawn(self._run(), name="use-list-cleaner")

    def stop(self) -> None:
        if self._process is not None and not self._process.done:
            self._process.kill("cleaner stopped")

    # -- the daemon loop -----------------------------------------------------

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.interval)
            yield from self.run_once()

    def run_once(self) -> Generator[Any, Any, list[str]]:
        """One cleanup round; returns the client nodes purged."""
        if not self._rpc.up:
            # The colocated host is down, so this daemon is too.  (The
            # daemon outliving its node is a simulation artefact; acting
            # on it would "detect" every client as dead, since pings
            # from a downed interface all fail instantly.)
            return []
        self.rounds += 1
        suspects = self._collect_client_nodes()
        purged: list[str] = []
        for client_node in sorted(suspects):
            alive = yield from self._ping(client_node)
            if alive:
                continue
            done = yield from self._purge(client_node)
            if not done:
                continue  # every dirty entry was locked; retry next round
            purged.append(client_node)
            self.clients_purged += 1
            self.metrics.counter("cleanup.clients_purged").increment()
        return purged

    # -- helpers ----------------------------------------------------------------

    def _purge(self, client_node: str) -> Generator[Any, Any, bool]:
        """Purge one dead client's counters under a top-level action.

        The write locks are taken through the database's lock manager
        (``purge_client`` skips -- does not break -- entries locked by
        live actions), and the action terminates through the standard
        two-phase machinery with the colocated database enlisted as
        participant.  Returns whether anything was actually purged.
        """
        action = AtomicAction(node=self.node_name)
        try:
            action.add_record(CallbackRecord(
                on_prepare=lambda a: Vote(self._db.prepare(a.id.path)),
                on_commit=lambda a: self._db.commit(a.id.path),
                on_abort=lambda a: self._db.abort(a.id.path),
                order=600))
            touched = self._db.server_db.purge_client(action.id.path,
                                                      client_node)
            if not touched:
                yield from action.abort()  # nothing reachable this round
                return False
            status = yield from action.commit()
        except BaseException:
            # Abort-on-failure: this top-level action must terminate on
            # every exit path (BaseException, so a killed daemon still
            # releases the purge's write locks on its way down).
            yield from abort_on_failure(action)
            raise
        return status.value == "committed"

    def _collect_client_nodes(self) -> set[str]:
        """Read every use list under a properly allocated probe action.

        The probe holds ordinary read locks while scanning (so it can
        never observe a half-applied purge or binder write) and aborts
        afterwards -- read-only, so the abort just releases the locks.
        Write-locked entries are skipped and re-examined next round.
        """
        nodes: set[str] = set()
        probe = AtomicAction(node=self.node_name)
        try:
            for uid in self._db.server_db.all_uids():
                try:
                    snapshot = self._db.server_db.get_server_with_uses(
                        probe.id.path, uid)
                except (LockRefused, PromotionRefused):
                    continue  # entry write-locked right now; look next round
                for counters in snapshot.uses.values():
                    nodes.update(counters)
        finally:
            self._db.server_db.abort(probe.id.path)
            probe.run_local(probe.abort())
        return nodes

    def _ping(self, client_node: str) -> Generator[Any, Any, bool]:
        try:
            answer = yield self._rpc.call(client_node, self.client_service, "ping",
                                          timeout=self.interval / 2)
        except RpcError:
            return False
        return answer == "pong"
