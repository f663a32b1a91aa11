"""The simulated cluster: nodes, hosts, clients, recovery.

This package realises the paper's system model (section 3): fail-silent
workstations, some with stable object stores (the ``St`` candidates),
some able to run object servers (the ``Sv`` candidates), and client
nodes running application atomic actions.

- :class:`~repro.cluster.node.Node` -- a workstation with a network
  interface, RPC agent, multicast member, optional object store, and
  crash/recover semantics (volatile state lost, stable state kept);
- :class:`~repro.cluster.store_host.StoreHost` -- the RPC service
  exposing a node's object store;
- :class:`~repro.cluster.server_host.ServerHost` and
  :class:`~repro.cluster.server_host.ObjectServer` -- activation,
  invocation (with per-object locking and before-image undo), and
  participation in two-phase commit;
- :class:`~repro.cluster.client.ClientRuntime` and
  :class:`~repro.cluster.client.Txn` -- the client-side programming
  interface running transactions as simulation processes;
- :class:`~repro.cluster.janitor.Janitor` -- one per server host and
  name node: ends the parts of actions whose coordinator has finished
  or died (paper section 4.1.3);
- :class:`~repro.cluster.recovery.RecoveryManager` -- what a crashed
  node does when it comes back: refresh stale states, ``Include`` its
  store, ``Insert`` its server capability;
- :class:`~repro.cluster.system.DistributedSystem` -- the harness that
  wires a whole cluster together for examples and benchmarks.
"""

from repro.cluster.errors import ActivationFailed, ClusterError, TxnAborted
from repro.cluster.janitor import Janitor
from repro.cluster.node import Node
from repro.cluster.store_host import StoreHost, STORE_SERVICE
from repro.cluster.server_host import ObjectServer, ServerHost, SERVER_SERVICE
from repro.cluster.client import ClientRuntime, Txn
from repro.cluster.recovery import RecoveryManager
from repro.cluster.system import DistributedSystem, SystemConfig

__all__ = [
    "ActivationFailed",
    "ClientRuntime",
    "ClusterError",
    "DistributedSystem",
    "Janitor",
    "Node",
    "ObjectServer",
    "RecoveryManager",
    "SERVER_SERVICE",
    "STORE_SERVICE",
    "ServerHost",
    "StoreHost",
    "SystemConfig",
    "Txn",
    "TxnAborted",
]
