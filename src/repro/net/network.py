"""The simulated LAN.

The :class:`Network` owns a set of :class:`NetworkInterface` objects (one
per node).  Sending is fire-and-forget: the network samples a latency,
schedules delivery, and at delivery time checks that the target interface
is up and that the direction is not blocked.  Messages to down or
cut-off targets vanish silently -- fail-silent nodes give senders no
error signal; failure detection is the job of timeouts above (RPC layer).
Tests can also install targeted drop rules to force specific loss
scenarios (e.g. "drop B's second reply" for figure 1).

Beyond the fail-silent model, the network also injects *gray*
failures: :meth:`Network.degrade` marks a host's interfaces slow --
every message touching them pays a service-time multiplier on its
sampled latency and a per-message drop probability -- and
:meth:`Network.block` cuts a single *direction* between two hosts (a
partial partition: A's messages to B vanish while B still reaches A; a
symmetric partition is a block in both directions between every pair
across the cut).  Both resolve per interface at transmission time,
cover a host's every plane (the primary NIC and its ``.sync``
replication NIC alike), and are what
:class:`repro.sim.failures.FaultPlan` degrade/partition events drive.
"""

from __future__ import annotations

from typing import Callable

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Scheduler

DeliverFn = Callable[[Message], None]
DropRule = Callable[[Message], bool]


class NetworkInterface:
    """A node's attachment point to the network.

    The owning node assigns :attr:`on_message` and flips :attr:`up` as it
    crashes and recovers.  While an interface is down it neither sends
    nor receives.

    A host's second *plane* (its ``.sync`` replication NIC) is just a
    second interface: another name with its own listener.  Every
    interface shares the network's one latency model.
    """

    def __init__(self, network: "Network", name: str) -> None:
        self._network = network
        self.name = name
        self.up = True
        self.on_message: DeliverFn | None = None
        self.sent_count = 0
        self.received_count = 0

    def send(self, target: str, kind: str, payload: object,
             size: int | None = None) -> Message | None:
        """Transmit a datagram; returns it, or ``None`` if we are down.

        ``size`` is the sender's metered size of ``payload``, carried to
        the receiver's meter.
        """
        if not self.up:
            return None
        message = Message(self.name, target, kind, payload, size)
        self.sent_count += 1
        self._network._transmit(message)
        return message

    def _deliver(self, message: Message) -> None:
        if not self.up or self.on_message is None:
            return
        self.received_count += 1
        self.on_message(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<NetworkInterface {self.name} {state}>"


class Network:
    """Datagram delivery with latency, loss, and directional blocks."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        rng: SeededRng | None = None,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop probability out of range: {drop_probability}")
        if drop_probability and rng is None:
            raise ValueError("drop_probability needs an rng for reproducibility")
        self._scheduler = scheduler
        self.latency = latency or FixedLatency()
        self._drop_probability = drop_probability
        self._rng = rng.substream("network") if rng else None
        self._interfaces: dict[str, NetworkInterface] = {}
        self._drop_rules: list[DropRule] = []
        # Gray-failure state, keyed by *host* name so one call covers
        # every plane of a host (resolution strips the ".sync"-style
        # interface suffix) and interfaces attached later inherit it.
        self._degraded: dict[str, tuple[float, float]] = {}
        self._blocked: set[tuple[str, str]] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_degraded_dropped = 0
        self.messages_blocked = 0

    # -- topology ----------------------------------------------------------

    def attach(self, name: str) -> NetworkInterface:
        """Create the interface for a new node name (must be unique)."""
        if name in self._interfaces:
            raise ValueError(f"interface name already attached: {name!r}")
        nic = NetworkInterface(self, name)
        self._interfaces[name] = nic
        return nic

    # -- loss ----------------------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> None:
        """Install a predicate that force-drops matching messages."""
        self._drop_rules.append(rule)

    def clear_drop_rules(self) -> None:
        self._drop_rules.clear()

    # -- gray failures -------------------------------------------------------

    def degrade(self, host: str, factor: float = 10.0,
                drop: float = 0.0) -> None:
        """Mark ``host`` gray: alive, but slow and lossy.

        Every message that touches any of the host's interfaces (the
        primary NIC and any ``<host>.<plane>`` companion) has its
        sampled delay multiplied by ``factor`` and is dropped with
        probability ``drop``.  Both directions suffer -- a gray host is
        slow to serve *and* slow to answer -- which is exactly what
        makes it worse than a crashed one: RPCs to it time out or limp
        instead of failing fast.
        """
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        if not 0.0 <= drop < 1.0:
            raise ValueError(f"degrade drop probability out of range: {drop}")
        if drop > 0.0 and self._rng is None:
            raise ValueError("degrade drop needs an rng for reproducibility")
        self._degraded[host] = (factor, drop)

    def restore(self, host: str) -> None:
        """Lift a :meth:`degrade`; unknown hosts are a no-op."""
        self._degraded.pop(host, None)

    def block(self, src: str, dst: str) -> None:
        """Cut the ``src -> dst`` direction only (a partial partition).

        Messages from any of ``src``'s interfaces to any of ``dst``'s
        vanish at delivery time; the reverse direction is untouched.
        Host-level on purpose: a link failure takes out every plane
        between the pair, sync NIC included.
        """
        if src == dst:
            raise ValueError("cannot block a host's path to itself")
        self._blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        """Heal a :meth:`block`; unknown pairs are a no-op."""
        self._blocked.discard((src, dst))

    @staticmethod
    def _host_of(interface_name: str) -> str:
        """The owning host of an interface (``s0.sync`` -> ``s0``)."""
        return interface_name.split(".", 1)[0]

    def _degradation(self, interface_name: str) -> tuple[float, float]:
        return self._degraded.get(self._host_of(interface_name), (1.0, 0.0))

    # -- transmission ----------------------------------------------------------

    def _transmit(self, message: Message) -> None:
        self.messages_sent += 1
        if message.target not in self._interfaces:
            self.messages_dropped += 1
            return
        if self._drop_rules and any(
                rule(message) for rule in self._drop_rules):
            self.messages_dropped += 1
            return
        # Exactly one draw per message that gets this far, whatever the
        # probability: the stream also feeds the gray-drop draws below,
        # so a run's drops are reproducible only if the count holds.
        if (self._rng is not None
                and self._rng.random() < self._drop_probability):
            self.messages_dropped += 1
            return
        delay = self.latency.sample(message.sender, message.target)
        # Gray hosts: either endpoint's degradation slows the message
        # (factors compound) and may drop it outright.  One rng draw
        # per degraded message keeps the stream count stable for
        # non-degraded runs.
        if self._degraded:
            s_factor, s_drop = self._degradation(message.sender)
            t_factor, t_drop = self._degradation(message.target)
            if s_drop or t_drop:
                combined = 1.0 - (1.0 - s_drop) * (1.0 - t_drop)
                if self._rng is not None and self._rng.chance(combined):
                    self.messages_dropped += 1
                    self.messages_degraded_dropped += 1
                    return
            delay *= s_factor * t_factor
        self._scheduler.schedule(delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        nic = self._interfaces.get(message.target)
        if nic is None or not nic.up:
            self.messages_dropped += 1
            return
        if self._blocked and (
                self._host_of(message.sender),
                self._host_of(message.target)) in self._blocked:
            self.messages_dropped += 1
            self.messages_blocked += 1
            return
        self.messages_delivered += 1
        nic._deliver(message)
