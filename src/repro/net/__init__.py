"""Simulated network substrate.

Models a local-area network of fail-silent workstations (paper section
2.1):

- :class:`~repro.net.network.Network` and
  :class:`~repro.net.network.NetworkInterface` -- datagram delivery with
  a pluggable latency model, message-drop probability and directional
  blocks.
- :class:`~repro.net.rpc.RpcAgent` -- request/reply remote procedure
  calls with timeouts, the paper's object-invocation mechanism (2.2).
- :mod:`~repro.net.multicast` -- reliable, totally-ordered group
  multicast built from flooding re-transmission plus a sequencer, the
  remedy the paper prescribes for the figure-1 divergence scenario
  (section 2.3, citing Schneider's state-machine tutorial).
- :class:`~repro.net.groups.GroupView` -- versioned membership lists.
"""

from repro.net.errors import (
    NetError,
    RpcError,
    RpcRemoteError,
    RpcTimeout,
    StaleRingEpoch,
    UnknownMethod,
    UnknownService,
)
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkInterface
from repro.net.demux import MessageDemux
from repro.net.rpc import RpcAgent, RpcReply, RpcRequest
from repro.net.groups import GroupView
from repro.net.multicast import (
    MulticastDelivery,
    MulticastMember,
    NaiveMulticastMember,
    ReliableOrderedMulticastMember,
)

__all__ = [
    "FixedLatency",
    "GroupView",
    "LatencyModel",
    "Message",
    "MessageDemux",
    "MulticastDelivery",
    "MulticastMember",
    "NaiveMulticastMember",
    "NetError",
    "Network",
    "NetworkInterface",
    "ReliableOrderedMulticastMember",
    "RpcAgent",
    "RpcError",
    "RpcRemoteError",
    "RpcReply",
    "RpcRequest",
    "RpcTimeout",
    "StaleRingEpoch",
    "UnknownMethod",
    "UnknownService",
]
