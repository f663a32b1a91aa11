"""The paper's section-5 hybrid name service.

"One way would be to keep available server related data in a
'traditional (non-atomic)' name server, and retain the services of a
modified object state server database with atomic action support.  It
would then become the responsibility of the Object State database to
guarantee consistent binding of clients to servers."

:class:`HybridNameService` is that composition: the ``Sv``/use-list
operations are served by a :class:`~repro.naming.nonatomic.NonAtomicNameServer`
(immediate updates, no locks, no undo) while the ``St`` operations keep
the fully atomic :class:`~repro.naming.object_state_db.ObjectStateDatabase`.
The two-phase-commit participant interface covers only the atomic half.

It is interface-compatible with
:class:`~repro.naming.group_view_db.GroupViewDatabase`, so the whole
system runs unchanged on top of it (benchmark E6 measures the
difference).
"""

from __future__ import annotations

from repro.naming.db_base import ActionPath
from repro.naming.nonatomic import NonAtomicNameServer
from repro.naming.object_server_db import ServerEntrySnapshot
from repro.naming.object_state_db import ObjectStateDatabase
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid


class HybridNameService:
    """Non-atomic server mappings + atomic state mappings."""

    def __init__(self, use_exclude_write_lock: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        shared_metrics = metrics or MetricsRegistry()
        self.server_side = NonAtomicNameServer(metrics=shared_metrics)
        self.state_db = ObjectStateDatabase(
            use_exclude_write_lock=use_exclude_write_lock,
            metrics=shared_metrics)
        self.metrics = shared_metrics

    # -- administrative ----------------------------------------------------

    def define_object(self, action_path: ActionPath, uid_text: str,
                      sv_hosts: list[str], st_hosts: list[str]) -> None:
        self.server_side.define_object(action_path, uid_text, sv_hosts,
                                       st_hosts)
        self.state_db.define(action_path, Uid.parse(uid_text), st_hosts)

    def knows(self, uid_text: str) -> bool:
        return self.state_db.knows(Uid.parse(uid_text))

    # -- server-side operations (non-atomic) ----------------------------------

    def get_binding(self, action_path: ActionPath, uid_text: str,
                    view_path: ActionPath) -> tuple[list[str], list[str]]:
        """``(Sv, St)`` in one call; only the ``St`` half takes a lock."""
        view = self.state_db.get_view(view_path, Uid.parse(uid_text))
        return self.server_side.get_server(action_path, uid_text), view

    def get_binding_with_uses(self, action_path: ActionPath, uid_text: str,
                              view_path: ActionPath,
                              ) -> tuple[ServerEntrySnapshot, list[str]]:
        """``(Sv with use lists, St)`` in one call; ``St`` alone locks."""
        view = self.state_db.get_view(view_path, Uid.parse(uid_text))
        return (self.server_side.get_server_with_uses(action_path, uid_text),
                view)

    def get_server_with_uses(self, action_path: ActionPath, uid_text: str,
                             for_update: bool = False) -> ServerEntrySnapshot:
        return self.server_side.get_server_with_uses(action_path, uid_text)

    def insert(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        self.server_side.insert(action_path, uid_text, host)

    def remove(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        self.server_side.remove(action_path, uid_text, host)

    def increment(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        self.server_side.increment(action_path, client_node, uid_text, hosts)

    def decrement(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        self.server_side.decrement(action_path, client_node, uid_text, hosts)

    def is_quiescent(self, uid_text: str) -> bool:
        return self.server_side.is_quiescent(uid_text)

    # -- state-side operations (atomic) ------------------------------------------

    def get_view(self, action_path: ActionPath, uid_text: str) -> list[str]:
        return self.state_db.get_view(action_path, Uid.parse(uid_text))

    def exclude(self, action_path: ActionPath,
                exclusions: list[tuple[str, list[str]]]) -> None:
        parsed = [(Uid.parse(uid_text), list(hosts))
                  for uid_text, hosts in exclusions]
        self.state_db.exclude(action_path, parsed)

    def include(self, action_path: ActionPath, uid_text: str,
                host: str) -> None:
        self.state_db.include(action_path, Uid.parse(uid_text), host)

    # -- 2PC participant: only the atomic half takes part -------------------------

    def prepare(self, action_path: ActionPath) -> str:
        return self.state_db.prepare(action_path)

    def commit(self, action_path: ActionPath) -> None:
        self.state_db.commit(action_path)

    def abort(self, action_path: ActionPath) -> None:
        # Server-side updates were applied immediately and CANNOT be
        # rolled back -- the defining weakness measured in E6.
        self.state_db.abort(action_path)

    def ping(self) -> str:
        return "pong"
