"""Node recovery protocols.

Paper section 4.2: "A crashed node with an object store must ensure,
upon recovery, that its objects do contain the latest committed states.
For this purpose, it can run atomic actions to update its object states
and then invoke the Include(..) operation for making the object states
available again."  And section 4.1.2: a recovered server node executes
``Insert`` before it is ready to act as a server -- the operation's
write lock plus the use-list check make it succeed only when the object
is quiescent, so a recovering node can never inject a stale replica
into an active group.

:class:`RecoveryManager` runs both protocols as a simulation process
each time its node recovers.  :class:`ShadowResolver` is the
termination protocol for orphaned shadows: when a client coordinator
crashes between the two commit phases, a store may be left holding a
prepared shadow; the resolver queries the other ``St`` members and
commits the shadow if the new version committed elsewhere, discarding
it otherwise (cooperative termination / presumed abort).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.actions.action import AtomicAction, abort_on_failure
from repro.actions.errors import LockRefused
from repro.cluster.node import Node
from repro.cluster.store_host import STORE_SERVICE
from repro.naming.db_client import GroupViewDbClient
from repro.naming.errors import NotQuiescent, UnknownObject
from repro.net.errors import RpcError
from repro.sim.process import Timeout
from repro.storage.uid import Uid


class RecoveryManager:
    """Brings a recovered node back into St and Sv safely."""

    def __init__(self, node: Node, db_node: str, serves: list[Uid],
                 retry_interval: float = 0.5, max_rounds: int = 200,
                 guard_interval: float | None = 2.0,
                 db_client: Any | None = None) -> None:
        self.node = node
        # ``db_client`` overrides the default single-node adapter (the
        # sharded deployment routes recovery traffic through the ring).
        self.db = db_client or GroupViewDbClient(node.rpc, db_node)
        self.serves = list(serves)  # objects this node can run servers for
        self.retry_interval = retry_interval
        self.max_rounds = max_rounds
        self.guard_interval = guard_interval
        self.recoveries_completed = 0
        self.states_refreshed = 0
        self.guard_reinclusions = 0
        self._install_hook()

    def _install_hook(self) -> None:
        first_boot = [True]

        def hook(node: Node) -> None:
            if self.guard_interval is not None and node.object_store is not None:
                node.spawn(self._include_guard(), name="include-guard")
            if first_boot[0]:
                first_boot[0] = False  # initial boot: nothing to recover
                return
            # Gate serving synchronously: no activation may slip in
            # between the node coming up and the recovery process starting.
            host = node.rpc.service("servers")
            if host is not None and self.serves:
                host.accepting = False
            node.spawn(self.run(), name="recovery")

        self.node.add_boot_hook(hook, run_now=True)

    def _include_guard(self) -> Generator[Any, Any, None]:
        """Periodically repair St membership for this node's store.

        A commit that observes this store's crash can Exclude it while
        (or even just after) the node recovers, so a one-shot recovery
        pass is not enough: the guard re-runs the idempotent
        refresh+Include step whenever the store finds itself outside an
        object's ``St`` view.
        """
        store = self.node.object_store
        assert store is not None
        while True:
            yield Timeout(self.guard_interval)
            for uid in store.uids():
                action = AtomicAction(node=self.node.name)
                try:
                    view = yield from self.db.get_view(action, uid)
                    yield from action.commit()
                except BaseException as exc:
                    # Abort, never abandon: a raised get_view/commit
                    # would otherwise leave the probe's read locks held
                    # on the shard until a cleaner happened to purge
                    # them, blocking writers on the entry meanwhile.
                    # BaseException so a killed guard process still
                    # releases them -- but only genuine Exceptions are
                    # survivable; anything broader keeps propagating.
                    yield from abort_on_failure(action)
                    if not isinstance(exc, Exception):
                        raise
                    continue
                if self.node.name in view:
                    continue
                done = yield from self._refresh_and_include(uid)
                if done:
                    self.guard_reinclusions += 1

    # -- the protocol -------------------------------------------------------

    def run(self) -> Generator[Any, Any, None]:
        """Refresh stale store states and re-Include, then re-Insert."""
        host = self.node.rpc.service("servers")
        if host is not None and self.serves:
            host.accepting = False  # serve again only after Insert succeeds
        if self.node.object_store is not None:
            yield from self._recover_store()
        yield from self._recover_server_capability()
        if host is not None:
            host.accepting = True
        self.recoveries_completed += 1
        self.node.metrics.counter(
            f"recovery.{self.node.name}.completed").increment()

    def _recover_store(self) -> Generator[Any, Any, None]:
        store = self.node.object_store
        assert store is not None
        for uid in store.uids():
            for _ in range(self.max_rounds):
                done = yield from self._refresh_and_include(uid)
                if done:
                    break
                yield Timeout(self.retry_interval)

    def _refresh_and_include(self, uid: Uid) -> Generator[Any, Any, bool]:
        """One attempt at the refresh+Include action for one object."""
        store = self.node.object_store
        assert store is not None
        action = AtomicAction(node=self.node.name)
        try:
            try:
                view = yield from self.db.get_view(action, uid)
            except (LockRefused, RpcError, UnknownObject):
                yield from action.abort()
                return False

            # Find the freshest committed version among the included
            # stores.
            local_version = store.version_of(uid)
            freshest: tuple[int, str] | None = None
            for peer in view:
                if peer == self.node.name:
                    continue
                try:
                    version = yield self.node.rpc.call(peer, STORE_SERVICE,
                                                       "version_of", str(uid))
                except RpcError:
                    continue
                if freshest is None or version > freshest[0]:
                    freshest = (version, peer)

            if freshest is not None and freshest[0] > local_version:
                version, peer = freshest
                try:
                    buffer, peer_version = yield self.node.rpc.call(
                        peer, STORE_SERVICE, "read", str(uid))
                except RpcError:
                    yield from action.abort()
                    return False
                store.install(uid, buffer, peer_version)
                self.states_refreshed += 1

            if self.node.name not in view:
                if view and freshest is None:
                    # Every member of ``St`` is silent: nobody can say
                    # this copy is current, so it stays out.
                    yield from action.abort()
                    return False
                try:
                    yield from self.db.include(action, uid, self.node.name)
                except (LockRefused, RpcError):
                    yield from action.abort()
                    return False
            status = yield from action.commit()
        except BaseException:
            # Abort-on-failure: whatever else goes wrong (including a
            # process kill), this top-level action must not leak its
            # read locks on the group-view entry.
            yield from abort_on_failure(action)
            raise
        return status.value == "committed"

    def _recover_server_capability(self) -> Generator[Any, Any, None]:
        """Re-Insert into Sv for each servable object (quiescence gate)."""
        for uid in self.serves:
            for _ in range(self.max_rounds):
                action = AtomicAction(node=self.node.name)
                try:
                    yield from self.db.insert(action, uid, self.node.name)
                except (NotQuiescent, LockRefused):
                    yield from action.abort()
                    yield Timeout(self.retry_interval)
                    continue
                except (RpcError, UnknownObject):
                    yield from action.abort()
                    yield Timeout(self.retry_interval)
                    continue
                except BaseException:
                    # Abort-on-failure: unexpected errors and process
                    # kills must not leak the Insert's write locks.
                    yield from abort_on_failure(action)
                    raise
                status = yield from action.commit()
                if status.value == "committed":
                    break
                yield Timeout(self.retry_interval)


class ShadowResolver:
    """Cooperative termination for orphaned prepared states.

    Runs on a store node.  Any shadow older than ``patience`` is
    resolved by querying the other stores in the object's ``St`` view:
    if any peer has committed a version >= the shadow's, the decision
    was commit -- install it; if all reachable peers are older and the
    coordinator is silent, presume abort and discard.
    """

    def __init__(self, node: Node, db_node: str, patience: float = 2.0,
                 interval: float = 1.0,
                 db_client: Any | None = None) -> None:
        if node.object_store is None:
            raise ValueError(f"{node.name} has no object store to resolve")
        self.node = node
        self.db = db_client or GroupViewDbClient(node.rpc, db_node)
        self.patience = patience
        self.interval = interval
        self.committed = 0
        self.discarded = 0
        self._born: dict[Uid, float] = {}
        node.add_boot_hook(lambda n: n.spawn(self._run(), name="shadow-resolver"))

    def _run(self) -> Generator[Any, Any, None]:
        store = self.node.object_store
        assert store is not None
        while True:
            yield Timeout(self.interval)
            now = self.node.scheduler.now
            shadows = [uid for uid in store.uids() if store.has_shadow(uid)]
            # Track shadow ages (volatile; reset on crash loses them, but a
            # crash also discards the shadows themselves).
            for uid in shadows:
                self._born.setdefault(uid, now)
            for uid in list(self._born):
                if uid not in shadows:
                    del self._born[uid]
                    continue
                if now - self._born[uid] >= self.patience:
                    yield from self._resolve(uid)
                    self._born.pop(uid, None)

    def _resolve(self, uid: Uid) -> Generator[Any, Any, None]:
        store = self.node.object_store
        assert store is not None
        action = AtomicAction(node=self.node.name)
        try:
            view = yield from self.db.get_view(action, uid)
        except (LockRefused, RpcError):
            yield from action.abort()
            return
        except BaseException:
            # Abort-on-failure: the resolver's probe must not leak its
            # read locks on an unexpected error or a process kill.
            yield from abort_on_failure(action)
            raise
        yield from action.commit()

        shadow_version = store.shadow_version_of(uid)
        if shadow_version == 0:
            return  # resolved concurrently
        decided_commit = False
        all_peers_answered = True
        for peer in view:
            if peer == self.node.name:
                continue
            try:
                version = yield self.node.rpc.call(peer, STORE_SERVICE,
                                                   "version_of", str(uid))
            except RpcError:
                all_peers_answered = False
                continue
            if version >= shadow_version:
                decided_commit = True
                break
        if decided_commit:
            store.commit_shadow(uid)
            self.committed += 1
        elif all_peers_answered:
            store.discard_shadow(uid)
            self.discarded += 1
        # else: undecidable now; try again next round
