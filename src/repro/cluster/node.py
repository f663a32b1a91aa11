"""A fail-silent workstation.

A :class:`Node` bundles the per-machine pieces: network interface,
message demux, RPC agent, multicast member, optional stable object
store, and a set of *boot hooks* that (re)register the node's services.
Crashing a node:

- takes its network interface down (messages in flight to it vanish);
- drops all RPC service registrations and multicast group state;
- discards object-store shadows (committed states survive -- stable
  storage);
- kills every simulation process spawned through the node.

Recovery brings the interface back up and re-runs the boot hooks, so
services come back empty -- activated objects, lock tables and use-list
knowledge are gone, exactly as the paper's failure assumptions dictate
(section 2.1).  The first hook empties the node's
:class:`~repro.actions.outcomes.Outcomes` table at every boot: its
answer, as coordinator, to the participants' janitors, and its
incarnation.

**The sync plane.**  A node built with a :class:`SyncPlaneConfig` gets a
*second* NIC named ``f"{name}.sync"`` and its own :class:`RpcAgent`
(its own single-server queue, its own service time) on the network's
one latency model -- the simulated equivalent of Swift's dedicated
replication network.  Maintenance traffic (resync, anti-entropy,
migration copies) routed at ``node.sync_rpc`` /
``"<host>.sync"`` then never queues behind client requests.  Without the
config, ``sync_rpc`` is an alias for the primary agent, so callers can
address the sync plane unconditionally and get shared-NIC behaviour.
Both NICs follow the node's liveness: a crash takes them down together
and recovery brings them back together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.actions.outcomes import COORDINATOR_SERVICE, Outcomes
from repro.net.batch import CommitBatcher
from repro.net.demux import MessageDemux
from repro.net.multicast import (
    MulticastMember,
    NaiveMulticastMember,
    ReliableOrderedMulticastMember,
)
from repro.net.network import Network, NetworkInterface
from repro.net.rpc import RpcAgent
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.storage.objectstore import ObjectStore
from repro.storage.uid import UidFactory

BootHook = Callable[["Node"], None]

# Interface-name suffix of the dedicated replication NIC.  The sync
# plane of host ``h`` answers at ``h + SYNC_NIC_SUFFIX``.
SYNC_NIC_SUFFIX = ".sync"


@dataclass
class SyncPlaneConfig:
    """Knobs for a node's dedicated replication NIC.

    A plane is a second interface name plus a second RPC agent with its
    own service queue; ``service_time`` (``None`` -> the primary
    plane's) is what that queue charges per request.
    """

    service_time: float | None = None


class Node:
    """One simulated workstation."""

    def __init__(
        self,
        scheduler: Scheduler,
        network: Network,
        name: str,
        has_store: bool = False,
        reliable_multicast: bool = True,
        rpc_timeout: float | None = None,
        service_time: float = 0.0,
        sync_plane: SyncPlaneConfig | None = None,
        metrics: MetricsRegistry | None = None,
        commit_batch_window: float | None = None,
        rpc_pipelining: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.network = network
        self.name = name
        self.metrics = metrics or MetricsRegistry()
        self._crashed = False

        self.nic = network.attach(name)
        self.demux = MessageDemux(self.nic)
        timeout = rpc_timeout if rpc_timeout is not None else (
            network.latency.typical * 6 + 0.05)
        self.rpc = RpcAgent(scheduler, self.nic, default_timeout=timeout,
                            service_time=service_time,
                            demux=self.demux,
                            traffic=self.metrics.plane_traffic(name, "client"),
                            pipeline=rpc_pipelining)
        # The raw-speed commit plane: when armed, this node's 2PC
        # records route their prepare/commit/abort (and shadow-write)
        # RPCs through the batcher, which coalesces same-instant calls
        # per (target, method) into one ``_many`` RPC.
        self.commit_batcher: CommitBatcher | None = (
            CommitBatcher(scheduler, self.rpc, window=commit_batch_window,
                          metrics=self.metrics)
            if commit_batch_window is not None else None)
        # What commit-path records ``.call(target, service, method,
        # *args)`` through: the batcher when armed, else plain RPC.
        self.commit_plane: CommitBatcher | RpcAgent = (
            self.commit_batcher or self.rpc)
        if sync_plane is not None:
            self.sync_nic: "NetworkInterface | None" = network.attach(
                name + SYNC_NIC_SUFFIX)
            self.sync_demux: MessageDemux | None = MessageDemux(self.sync_nic)
            sync_service_time = (sync_plane.service_time
                                 if sync_plane.service_time is not None
                                 else service_time)
            self.sync_rpc = RpcAgent(
                scheduler, self.sync_nic, default_timeout=timeout,
                service_time=sync_service_time,
                demux=self.sync_demux,
                traffic=self.metrics.plane_traffic(name, "sync"))
        else:
            # Shared-NIC fallback: the sync plane aliases the primary
            # agent, so sync-plane callers need no special casing.
            self.sync_nic = None
            self.sync_demux = None
            self.sync_rpc = self.rpc
        mcast_cls = (ReliableOrderedMulticastMember if reliable_multicast
                     else NaiveMulticastMember)
        self.mcast: MulticastMember = mcast_cls(
            scheduler, self.nic, self.demux,
            traffic=self.metrics.plane_traffic(name, "client"))
        if self.sync_nic is not None and self.sync_demux is not None:
            # Group traffic originated by the maintenance side (e.g.
            # coherence invalidation pushes) leaves through the sync
            # NIC's own multicast member, so pushes never queue behind
            # client RPCs and are metered on the sync plane.
            self.sync_mcast: MulticastMember = mcast_cls(
                scheduler, self.sync_nic, self.sync_demux,
                traffic=self.metrics.plane_traffic(name, "sync"))
        else:
            self.sync_mcast = self.mcast
        self.object_store: ObjectStore | None = (
            ObjectStore(name) if has_store else None)
        self.uids = UidFactory(name)
        self.boot_hooks: list[BootHook] = []
        # Live processes in spawn order (crash() kills them in it); each
        # removes itself when it settles.
        self._processes: dict[Process, None] = {}
        self.crash_count = 0
        self.recover_count = 0
        self.outcomes = Outcomes(name)
        self.add_boot_hook(Node._serve_outcomes)

    # -- lifecycle ------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def sync_suffix(self) -> str:
        """Target-name suffix of this node's sync plane ("" when shared)."""
        return SYNC_NIC_SUFFIX if self.sync_nic is not None else ""

    def add_boot_hook(self, hook: BootHook, run_now: bool = True) -> None:
        """Register a service-installing hook; runs now and on recovery."""
        self.boot_hooks.append(hook)
        if run_now and not self._crashed:
            hook(self)

    def _serve_outcomes(self) -> None:
        self.outcomes.boot(self.recover_count)
        self.rpc.register(COORDINATOR_SERVICE, self.outcomes)

    def crash(self) -> None:
        """Fail-silent crash: lose volatile state, go dark."""
        if self._crashed:
            return
        self._crashed = True
        self.crash_count += 1
        self.metrics.counter(f"node.{self.name}.crashes").increment()
        self.metrics.timeseries(f"node.{self.name}.up").record(
            self.scheduler.now, 0.0)
        self.nic.up = False
        self.rpc.reset()
        if self.commit_batcher is not None:
            # Buffered-but-unflushed batch members die with the node,
            # exactly like the in-flight calls rpc.reset() just failed.
            self.commit_batcher.reset()
        if self.sync_nic is not None:
            # Both NICs die with the workstation: the sync plane is a
            # second port, not a second failure domain.
            self.sync_nic.up = False
            self.sync_rpc.reset()
        self.mcast.reset()
        if self.sync_mcast is not self.mcast:
            self.sync_mcast.reset()
        if self.object_store is not None:
            self.object_store.mark_down()
        processes, self._processes = self._processes, {}
        for process in list(processes):
            process.kill(f"node {self.name} crashed")

    def recover(self) -> None:
        """Restart: stable storage intact, everything else from scratch."""
        if not self._crashed:
            return
        self._crashed = False
        self.recover_count += 1
        self.metrics.timeseries(f"node.{self.name}.up").record(
            self.scheduler.now, 1.0)
        self.nic.up = True
        if self.sync_nic is not None:
            self.sync_nic.up = True
        if self.object_store is not None:
            self.object_store.mark_up()
        for hook in self.boot_hooks:
            hook(self)

    # -- process management ---------------------------------------------------

    def spawn(self, body: Generator[Any, Any, Any], name: str = "") -> Process:
        """Spawn a process owned by this node (killed if the node crashes)."""
        process = self.scheduler.spawn(body, name=f"{self.name}:{name}")
        self._processes[process] = None
        process.add_callback(self._forget_process)
        return process

    def _forget_process(self, process: Process) -> None:
        self._processes.pop(process, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        store = " store" if self.object_store else ""
        return f"<Node {self.name} {state}{store}>"
