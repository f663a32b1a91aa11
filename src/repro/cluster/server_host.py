"""Object servers and the per-node server host service.

A node in ``Sv_A`` can run a *server* for object ``A`` (paper section
3.1).  :class:`ObjectServer` is one activated replica: the in-memory
object, a lock table, and before-images for abort.  :class:`ServerHost`
is the node's RPC service that activates servers (loading states from
object stores), routes invocations, participates in two-phase commit,
and handles group-multicast invocations for active replication.

Everything here is volatile: a node crash destroys the host and all its
servers; recovery re-installs an empty host (the boot hook), after
which the recovery protocol re-``Insert``s the node into ``Sv`` sets.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.actions.action import ActionId
from repro.actions.locks import LockManager, LockMode
from repro.cluster.errors import ActivationFailed
from repro.cluster.node import Node
from repro.cluster.store_host import STORE_SERVICE
from repro.core.objects import ObjectClassRegistry, PersistentObject, operation_mode
from repro.net.errors import RpcError
from repro.net.groups import GroupView
from repro.net.multicast import MulticastDelivery
from repro.storage.uid import Uid

SERVER_SERVICE = "servers"

GROUP_REPLY_KIND = "ginv.reply"


def group_name_for(uid: Uid) -> str:
    return f"obj:{uid}"


class ObjectServer:
    """One activated replica of a persistent object."""

    def __init__(self, node: Node, obj: PersistentObject, version: int) -> None:
        self.node = node
        self.obj = obj
        self.version = version
        self.locks = LockManager()
        # Before-images: (action path, serialised state), earliest first.
        self._images: list[tuple[tuple[int, ...], bytes]] = []
        self.invocations = 0

    # -- invocation -----------------------------------------------------------

    def invoke(self, action_path: tuple[int, ...], op: str, args: tuple) -> Any:
        """Execute ``op`` under the action's lock; may raise LockRefused."""
        mode = operation_mode(self.obj, op)
        if mode is None:
            raise AttributeError(f"{type(self.obj).__name__}.{op} is not an operation")
        owner = ActionId(tuple(action_path))
        self.locks.try_lock(owner, "object", mode)
        path = tuple(action_path)
        if mode is not LockMode.READ and not self._has_image_for(path):
            # One before-image per nesting level: a nested action aborting
            # must rewind exactly its own first write, not its parent's.
            self._images.append((path, self.obj.serialise()))
        self.invocations += 1
        return getattr(self.obj, op)(*args)

    def _has_image_for(self, path: tuple[int, ...]) -> bool:
        return any(image_path == path for image_path, _ in self._images)

    # -- 2PC ---------------------------------------------------------------------

    def wrote_under(self, action_path: tuple[int, ...]) -> bool:
        path = tuple(action_path)
        return any(_is_prefix(path, image_path) for image_path, _ in self._images)

    def commit(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        if self.wrote_under(path):
            self.version += 1
        self._images = [(p, img) for p, img in self._images
                        if not _is_prefix(path, p)]
        self._release_tree(path)

    def abort(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        doomed = [(p, img) for p, img in self._images if _is_prefix(path, p)]
        if doomed:
            _, earliest_image = doomed[0]
            restored = type(self.obj).deserialise(earliest_image)
            self.obj = restored
        self._images = [(p, img) for p, img in self._images
                        if not _is_prefix(path, p)]
        self._release_tree(path)

    def _release_tree(self, path: tuple[int, ...]) -> None:
        for owner in list(self.locks.owners()):
            if _is_prefix(path, owner.path):
                self.locks.release_all(owner)

    # -- state transfer -------------------------------------------------------------

    def get_state(self) -> tuple[bytes, int]:
        return self.obj.serialise(), self.version

    def install_state(self, buffer: bytes, version: int) -> bool:
        """Checkpoint install (coordinator-cohort replication): only a
        version newer than the one held, as the stores treat a shadow."""
        if version <= self.version:
            return False
        self.obj = type(self.obj).deserialise(buffer)
        self.version = version
        return True

    @property
    def quiescent(self) -> bool:
        return not self.locks.owners() and not self._images


class ServerHost:
    """Per-node service managing that node's activated object servers."""

    def __init__(self, node: Node, registry: ObjectClassRegistry,
                 janitor_interval: float | None = 2.0) -> None:
        self._node = node
        self._registry = registry
        self._servers: dict[Uid, ObjectServer] = {}
        self._groups_joined: dict[str, GroupView] = {}
        # Which client node drives each action with state here; the
        # janitor uses it to abort actions of crashed clients (the
        # failure-detection/cleanup protocol of paper section 4.1.3,
        # applied to server-side locks and before-images).
        self._action_clients: dict[tuple[int, ...], str] = {}
        # What each in-flight top-level action's tree has here, keyed by
        # its root serial (``action_path[0]``): the servers it invoked
        # (an insertion-ordered set -- the only ones that can hold its
        # locks or before-images) and the paths it tracked above.  2PC
        # for an action visits these and nothing else on the host; an
        # entry dies with its top-level action (see ``_ending``).
        self._roots: dict[int, tuple[dict[ObjectServer, None],
                                     list[tuple[int, ...]]]] = {}
        self.janitor_interval = janitor_interval
        self.janitor_aborts = 0
        # A recovering node must not activate servers until its Insert
        # into Sv has confirmed quiescence (paper section 4.1.2); the
        # recovery manager gates this flag.
        self.accepting = True

    @classmethod
    def install_on(cls, node: Node, registry: ObjectClassRegistry,
                   janitor_interval: float | None = 2.0) -> "None":
        """Boot hook: a fresh (empty) host on boot and on every recovery."""
        def hook(n: Node) -> None:
            host = cls(n, registry, janitor_interval=janitor_interval)
            n.rpc.register(SERVER_SERVICE, host)
            if janitor_interval is not None:
                n.spawn(host._janitor_loop(), name="server-janitor")
        node.add_boot_hook(hook)

    # -- orphaned-action cleanup ---------------------------------------------

    def _janitor_loop(self) -> Generator[Any, Any, None]:
        from repro.sim.process import Timeout
        while True:
            yield Timeout(self.janitor_interval)
            # One probe per client a round, however many actions it has
            # here: the answer is the same for all of them.
            by_client: dict[str, list[tuple[int, ...]]] = {}
            for path, client_ref in self._action_clients.items():
                by_client.setdefault(client_ref, []).append(path)
            for client_ref, paths in by_client.items():
                if not any(path in self._action_clients for path in paths):
                    continue  # all resolved while we probed another one
                if (yield from self._client_alive(client_ref)):
                    continue
                for path in paths:
                    if path in self._action_clients:  # not ended meanwhile
                        self.abort(path)
                        self.janitor_aborts += 1

    def _client_alive(self, client_ref: str) -> Generator[Any, Any, bool]:
        """Liveness with incarnation check: ``name#epoch`` references are
        dead if the client answers from a *later* boot epoch (the action's
        client-side state did not survive the restart)."""
        name, _, epoch_text = client_ref.partition("#")
        try:
            answer = yield self._node.rpc.call(name, "client", "epoch")
        except RpcError:
            return False
        if epoch_text:
            return answer == int(epoch_text)
        return True

    def _untrack_tree(self, path: tuple[int, ...],
                      tracked: Iterable[tuple[int, ...]]) -> None:
        """Forget ``path`` and, of its root's ``tracked`` paths, those
        under it."""
        self._action_clients.pop(path, None)
        for candidate in tracked:
            if _is_prefix(path, candidate):
                self._action_clients.pop(candidate, None)

    # -- activation (paper section 3.1) -----------------------------------------

    def activate(self, action_path: tuple[int, ...], uid_text: str,
                 st_hosts: list[str]) -> Generator[Any, Any, dict]:
        """Create (or find) the server for ``uid``; load state from ``St``.

        The state may be loaded from *any* node in the supplied ``St``
        view (paper figure 5 discussion); hosts are tried in order.  A
        generator handler: the host performs RPCs to store nodes.
        """
        if not self.accepting:
            raise ActivationFailed(
                f"{self._node.name} is recovering and not yet serving")
        uid = Uid.parse(uid_text)
        existing = self._servers.get(uid)
        if existing is not None:
            return {"status": "bound", "version": existing.version,
                    "type_name": type(existing.obj).TYPE_NAME}
        buffer, version = yield from self._load_state(uid_text, st_hosts)
        obj = self._registry.instantiate(buffer)
        self._servers[uid] = ObjectServer(self._node, obj, version)
        return {"status": "activated", "version": version,
                "type_name": type(obj).TYPE_NAME}

    def _load_state(self, uid_text: str,
                    st_hosts: list[str]) -> Generator[Any, Any, tuple[bytes, int]]:
        for st_host in st_hosts:
            if st_host == self._node.name and self._node.object_store is not None:
                store = self._node.object_store
                uid = Uid.parse(uid_text)
                if store.contains(uid):
                    state = store.read_committed(uid)
                    return state.buffer, state.version
                continue
            try:
                buffer, version = yield self._node.rpc.call(
                    st_host, STORE_SERVICE, "read", uid_text)
            except RpcError:
                continue
            return buffer, version
        raise ActivationFailed(
            f"no object store in {st_hosts} could supply {uid_text}")

    # -- invocation ----------------------------------------------------------------

    def invoke(self, action_path: tuple[int, ...], uid_text: str, op: str,
               args: tuple, client_node: str = "") -> Any:
        server = self._server(uid_text)
        entry = self._roots.get(action_path[0])
        if entry is None:
            entry = self._roots[action_path[0]] = ({}, [])
        servers, tracked = entry
        # Indexed before the call: an operation that raises after taking
        # its lock still leaves state for the action's abort to find.
        servers[server] = None
        value = server.invoke(action_path, op, tuple(args))
        if client_node:
            path = tuple(action_path)
            if path not in self._action_clients:
                tracked.append(path)
            self._action_clients[path] = client_node
        return value

    def _server(self, uid_text: str) -> ObjectServer:
        server = self._servers.get(Uid.parse(uid_text))
        if server is None:
            raise KeyError(f"no active server for {uid_text} on {self._node.name}")
        return server

    def has_server(self, uid_text: str) -> bool:
        return Uid.parse(uid_text) in self._servers

    def ping(self) -> str:
        return "pong"

    # -- 2PC participant (host-level: covers every server the action touched) -------

    def _ending(self, path: tuple[int, ...]) -> tuple[
            Iterable[ObjectServer], Iterable[tuple[int, ...]]]:
        """The root entry of ``path``, taken by the call that ends
        ``path``: ending a top-level action removes the entry."""
        if len(path) == 1:
            return self._roots.pop(path[0], _NO_ENTRY)
        return self._roots.get(path[0], _NO_ENTRY)

    def prepare(self, action_path: tuple[int, ...],
                ) -> tuple[str, dict[str, tuple[bytes, int]]]:
        """Vote, and hand over what the vote covers.

        ``("ok", states)`` carries ``{uid: (buffer, version)}`` of every
        object the action wrote on this host -- the state commit
        processing copies to the stores, so the client never asks for
        it separately.  Nothing changes here on an "ok" vote, so a
        re-sent prepare answers the same.
        """
        path = tuple(action_path)
        servers, _ = self._roots.get(path[0], _NO_ENTRY)
        states = {str(server.obj.uid): server.get_state()
                  for server in servers if server.wrote_under(path)}
        if states:
            return "ok", states
        # Read-only optimisation: release read locks at prepare.  The
        # coordinator sends a read-only participant no phase 2, so the
        # action ends here, tracked client included.
        servers, tracked = self._ending(path)
        for server in servers:
            server._release_tree(path)
        self._untrack_tree(path, tracked)
        return "readonly", {}

    def commit(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        servers, tracked = self._ending(path)
        for server in servers:
            server.commit(path)
        self._untrack_tree(path, tracked)

    def abort(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        servers, tracked = self._ending(path)
        for server in servers:
            server.abort(path)
        self._untrack_tree(path, tracked)

    # -- state transfer ----------------------------------------------------------------

    def get_state(self, uid_text: str) -> tuple[bytes, int]:
        """Inspection only: commit processing takes the state from the
        ``prepare`` reply, never from a call of its own."""
        return self._server(uid_text).get_state()

    def install_state(self, uid_text: str, buffer: bytes, version: int) -> bool:
        """Whether the state was installed: two clients' checkpoints can
        arrive out of order, and the older one must not win."""
        uid = Uid.parse(uid_text)
        server = self._servers.get(uid)
        if server is None:
            obj = self._registry.instantiate(buffer)
            self._servers[uid] = ObjectServer(self._node, obj, version)
            return True
        return server.install_state(buffer, version)

    # -- passivation (paper section 2.3: quiescent objects passivate) ----------------

    def passivate_if_quiescent(self, uid_text: str) -> bool:
        uid = Uid.parse(uid_text)
        server = self._servers.get(uid)
        if server is not None and server.quiescent:
            del self._servers[uid]
            for servers, _ in self._roots.values():
                servers.pop(server, None)
            group = group_name_for(uid)
            if group in self._groups_joined:
                self._node.mcast.leave(group)
                del self._groups_joined[group]
            return True
        return False

    # -- group invocation (active replication) ----------------------------------------

    def join_group(self, uid_text: str, members: list[str]) -> bool:
        """Join the object's invocation group (idempotent for same view)."""
        uid = Uid.parse(uid_text)
        group = group_name_for(uid)
        view = GroupView(tuple(members))
        current = self._groups_joined.get(group)
        if current is not None and current.members == view.members:
            return True
        if current is not None:
            self._node.mcast.leave(group)
        self._node.mcast.join(group, view, self._on_group_invocation)
        self._groups_joined[group] = view
        return True

    def _on_group_invocation(self, delivery: MulticastDelivery) -> None:
        payload = delivery.payload
        request_id = payload["request_id"]
        reply_to = payload["reply_to"]
        try:
            value = self.invoke(payload["action_path"], payload["uid"],
                                payload["op"], payload["args"],
                                client_node=payload.get("client_ref",
                                                        reply_to))
            reply = {"request_id": request_id, "member": self._node.name,
                     "ok": True, "value": value}
        except Exception as exc:
            reply = {"request_id": request_id, "member": self._node.name,
                     "ok": False, "error_type": type(exc).__name__,
                     "error_message": str(exc)}
        self._node.nic.send(reply_to, GROUP_REPLY_KIND, reply)


# What ``ServerHost._roots`` holds for a root that invoked nothing here.
_NO_ENTRY: tuple[tuple, tuple] = ((), ())


def _is_prefix(prefix: tuple[int, ...], path: tuple[int, ...]) -> bool:
    return path[:len(prefix)] == prefix
