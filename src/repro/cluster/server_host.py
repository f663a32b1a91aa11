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
The same hook starts the node's :class:`~repro.cluster.janitor.Janitor`,
which ends the parts here of actions whose coordinator has finished or
died.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.actions.action import ActionId
from repro.actions.locks import LockManager, LockMode
from repro.cluster.errors import ActivationFailed
from repro.cluster.janitor import Janitor
from repro.cluster.node import Node
from repro.cluster.store_host import STORE_SERVICE
from repro.core.objects import ObjectClassRegistry, PersistentObject, operation_mode
from repro.net.errors import RpcError
from repro.net.groups import GroupView
from repro.net.multicast import MulticastDelivery
from repro.sim.futures import Future
from repro.sim.process import Process
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
        self.acquire(action_path, op, park=False)
        return self.run(action_path, op, args)

    def acquire(self, action_path: tuple[int, ...], op: str,
                park: bool) -> Future | None:
        """Take the lock ``op`` needs, or raise LockRefused.  With
        ``park``, a fresh request behind older holders parks on this
        node's clock for half its RPC timeout instead, and the future
        is returned (see :mod:`repro.actions.locks`)."""
        mode = operation_mode(self.obj, op)
        if mode is None:
            raise AttributeError(f"{type(self.obj).__name__}.{op} is not an operation")
        owner = ActionId(tuple(action_path))
        if not park:
            self.locks.try_lock(owner, "object", mode)
            return None
        return self.locks.lock(owner, "object", mode, self.node.scheduler,
                               self.node.rpc.default_timeout / 2)

    def run(self, action_path: tuple[int, ...], op: str, args: tuple) -> Any:
        """Execute ``op``, whose lock the action holds."""
        mode = operation_mode(self.obj, op)
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
        self.locks.release_tree(path)

    def abort(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        doomed = [(p, img) for p, img in self._images if _is_prefix(path, p)]
        if doomed:
            _, earliest_image = doomed[0]
            restored = type(self.obj).deserialise(earliest_image)
            self.obj = restored
        self._images = [(p, img) for p, img in self._images
                        if not _is_prefix(path, p)]
        self.locks.release_tree(path)

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


class ServerHost:
    """Per-node service managing that node's activated object servers."""

    def __init__(self, node: Node, registry: ObjectClassRegistry) -> None:
        self._node = node
        self._registry = registry
        self._servers: dict[Uid, ObjectServer] = {}
        self._groups_joined: dict[str, GroupView] = {}
        # The servers each in-flight top-level action's tree invoked
        # here, keyed by its root serial (``action_path[0]``): an
        # insertion-ordered set, the only servers that can hold its
        # locks or before-images.  2PC for an action visits these and
        # nothing else on the host; an entry dies with its top-level
        # action (see ``_ending``).
        self._roots: dict[int, dict[ObjectServer, None]] = {}
        # The coordinator ref (``node#incarnation``) of each root that
        # named one: whom the janitor asks about it.
        self._refs: dict[int, str] = {}
        # A recovering node must not activate servers until its Insert
        # into Sv has confirmed quiescence (paper section 4.1.2); the
        # recovery manager gates this flag.
        self.accepting = True

    @classmethod
    def install_on(cls, node: Node, registry: ObjectClassRegistry) -> None:
        """Boot hook: a fresh (empty) host, and its janitor, on boot and
        on every recovery."""
        def hook(n: Node) -> None:
            host = cls(n, registry)
            n.rpc.register(SERVER_SERVICE, host)
            Janitor(n, host).start()
        node.add_boot_hook(hook)

    def parts(self) -> dict[int, tuple[str, bool]]:
        """What the janitor judges here: top-level serial ->
        (coordinator ref, False).  Server state is volatile, so no part
        here is kept for an orphaned coordinator: it is aborted."""
        return {serial: (ref, False) for serial, ref in self._refs.items()}

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
        """The RPC path (single-copy passive, coordinator-cohort): a
        conflicting request behind older holders parks, and the handler
        returns a generator that runs the operation once granted.  The
        wait runs as a process of this node, so a crash ends it with no
        reply, like every other process the node runs.  ``client_node``
        is the coordinator's ref, for the janitor."""
        server = self._enter(action_path, uid_text, client_node)
        parked = server.acquire(action_path, op, park=True)
        if parked is None:
            return server.run(action_path, op, tuple(args))
        return _joined(self._node.spawn(self._when_granted(
            parked, server, action_path, op, args), name="parked-invoke"))

    def _when_granted(self, parked: Future, server: ObjectServer,
                      action_path: tuple[int, ...], op: str,
                      args: tuple) -> Generator[Any, Any, Any]:
        started = self._node.scheduler.now
        try:
            yield parked
        finally:
            self._node.metrics.histogram("lock_wait").observe(
                self._node.scheduler.now - started)
        return server.run(action_path, op, tuple(args))

    def _enter(self, action_path: tuple[int, ...], uid_text: str,
               ref: str) -> ObjectServer:
        server = self._server(uid_text)
        serial = action_path[0]
        # Indexed before the lock request: an operation that parks, or
        # raises after taking its lock, still leaves state for the
        # action's abort (or the janitor) to find.
        self._roots.setdefault(serial, {})[server] = None
        if ref:
            self._refs.setdefault(serial, ref)
        return server

    def _server(self, uid_text: str) -> ObjectServer:
        server = self._servers.get(Uid.parse(uid_text))
        if server is None:
            raise KeyError(f"no active server for {uid_text} on {self._node.name}")
        return server

    def has_server(self, uid_text: str) -> bool:
        return Uid.parse(uid_text) in self._servers

    # -- 2PC participant (host-level: covers every server the action touched) -------

    def _ending(self, path: tuple[int, ...]) -> Iterable[ObjectServer]:
        """The servers of ``path``'s root, taken by the call that ends
        ``path``: ending a top-level action removes its entry."""
        if len(path) == 1:
            self._refs.pop(path[0], None)
            return self._roots.pop(path[0], ())
        return self._roots.get(path[0], ())

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
        servers = self._roots.get(path[0], ())
        states = {str(server.obj.uid): server.get_state()
                  for server in servers if server.wrote_under(path)}
        if states:
            return "ok", states
        # Read-only optimisation: release read locks at prepare.  The
        # coordinator sends a read-only participant no phase 2, so the
        # action ends here.
        for server in self._ending(path):
            server.locks.release_tree(path)
        return "readonly", {}

    def commit(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        for server in self._ending(path):
            server.commit(path)

    def abort(self, action_path: tuple[int, ...]) -> None:
        path = tuple(action_path)
        for server in self._ending(path):
            server.abort(path)

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
            # Never parks: the group's members must apply operations in
            # the one order the multicast delivers them.
            action_path = payload["action_path"]
            server = self._enter(action_path, payload["uid"],
                                 payload.get("client_ref", ""))
            value = server.invoke(action_path, payload["op"],
                                  tuple(payload["args"]))
            reply = {"request_id": request_id, "member": self._node.name,
                     "ok": True, "value": value}
        except Exception as exc:
            reply = {"request_id": request_id, "member": self._node.name,
                     "ok": False, "error_type": type(exc).__name__,
                     "error_message": str(exc)}
        self._node.nic.send(reply_to, GROUP_REPLY_KIND, reply)


def _joined(process: Process) -> Generator[Any, Any, Any]:
    return (yield process)


def _is_prefix(prefix: tuple[int, ...], path: tuple[int, ...]) -> bool:
    return path[:len(prefix)] == prefix
