"""A 'traditional' non-atomic name server (concluding remarks, section 5).

The paper's proposed future-work configuration: "keep available server
related data in a 'traditional (non-atomic)' name server, and retain
the services of a modified object state server database with atomic
action support.  It would then become the responsibility of the Object
State database to guarantee consistent binding of clients to servers."

:class:`NonAtomicNameServer` is such a traditional server: the same
operations as the Object Server database, but applied immediately with
no locks, no undo and no two-phase commit.  Action paths are accepted
(and ignored) so the server is a drop-in replacement for the atomic one
in the service registry; ``prepare``/``commit``/``abort`` are no-ops.

The E6 benchmark pairs this with the atomic Object State database and
measures which anomalies each half admits.
"""

from __future__ import annotations

from repro.naming.db_base import ActionPath
from repro.naming.errors import UnknownObject
from repro.naming.object_server_db import ServerEntrySnapshot
from repro.sim.metrics import MetricsRegistry
from repro.storage.uid import Uid


class NonAtomicNameServer:
    """Sv mappings with immediate, unsynchronised updates."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._hosts: dict[Uid, list[str]] = {}
        self._uses: dict[Uid, dict[str, dict[str, int]]] = {}
        self.metrics = metrics or MetricsRegistry()

    # -- operations (action paths ignored) ---------------------------------

    def define_object(self, action_path: ActionPath, uid_text: str,
                      sv_hosts: list[str], st_hosts: list[str]) -> None:
        uid = Uid.parse(uid_text)
        self._hosts[uid] = list(sv_hosts)
        self._uses[uid] = {h: {} for h in sv_hosts}

    def get_server(self, action_path: ActionPath, uid_text: str) -> list[str]:
        self.metrics.counter("nonatomic.get_server").increment()
        return list(self._entry(Uid.parse(uid_text)))

    def get_server_with_uses(self, action_path: ActionPath,
                             uid_text: str) -> ServerEntrySnapshot:
        uid = Uid.parse(uid_text)
        self.metrics.counter("nonatomic.get_server").increment()
        hosts = self._entry(uid)
        uses = {h: dict(c) for h, c in self._uses.get(uid, {}).items()}
        return ServerEntrySnapshot(tuple(hosts), uses)

    def insert(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        uid = Uid.parse(uid_text)
        hosts = self._entry(uid)
        if host not in hosts:
            hosts.append(host)
            self._uses.setdefault(uid, {}).setdefault(host, {})
        self.metrics.counter("nonatomic.insert").increment()

    def remove(self, action_path: ActionPath, uid_text: str, host: str) -> None:
        uid = Uid.parse(uid_text)
        hosts = self._entry(uid)
        if host in hosts:
            hosts.remove(host)
            self._uses.get(uid, {}).pop(host, None)
        self.metrics.counter("nonatomic.remove").increment()

    def increment(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        uid = Uid.parse(uid_text)
        for host in hosts:
            counters = self._uses.setdefault(uid, {}).setdefault(host, {})
            counters[client_node] = counters.get(client_node, 0) + 1
        self.metrics.counter("nonatomic.increment").increment()

    def decrement(self, action_path: ActionPath, client_node: str,
                  uid_text: str, hosts: list[str]) -> None:
        uid = Uid.parse(uid_text)
        for host in hosts:
            counters = self._uses.get(uid, {}).get(host, {})
            if counters.get(client_node, 0) > 0:
                counters[client_node] -= 1
                if counters[client_node] == 0:
                    del counters[client_node]
        self.metrics.counter("nonatomic.decrement").increment()

    def is_quiescent(self, uid_text: str) -> bool:
        uid = Uid.parse(uid_text)
        return not any(c for uses in self._uses.get(uid, {}).values()
                       for c in uses.values())

    # -- 2PC interface: no-ops (that is the whole point) ----------------------

    def prepare(self, action_path: ActionPath) -> str:
        return "readonly"

    def commit(self, action_path: ActionPath) -> None:
        return None

    def abort(self, action_path: ActionPath) -> None:
        return None  # nothing is ever rolled back: updates were immediate

    def ping(self) -> str:
        return "pong"

    # -- internals ---------------------------------------------------------------

    def _entry(self, uid: Uid) -> list[str]:
        hosts = self._hosts.get(uid)
        if hosts is None:
            raise UnknownObject(f"no entry for {uid}")
        return hosts
