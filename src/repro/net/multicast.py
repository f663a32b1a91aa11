"""Group multicast: the naive baseline and the paper's remedy.

Section 2.3 of the paper (figure 1) shows replica divergence when a
sender crashes part-way through delivering a message to a replica group:
one member sees the message, another does not, and their subsequent
behaviour diverges.  The paper prescribes group communication with
*reliability* (all functioning members receive every message) and
*ordering* (in the same order), citing Schneider's state-machine
tutorial.

Two member implementations are provided:

- :class:`NaiveMulticastMember` -- the broken baseline: a multicast is a
  sequence of independent unicasts, staggered in time.  A sender crash
  between unicasts produces exactly the figure-1 partial delivery.
- :class:`ReliableOrderedMulticastMember` -- a sequencer-ordered
  reliable multicast.  Senders submit the message to the group's
  sequencer (the first member of the view); the sequencer stamps a
  per-group sequence number and transmits to every member; every member
  *relays* each first-seen message to all other members (flooding
  R-multicast, as in Coulouris et al.), so if any functioning member
  receives a message, all functioning members do, even if the original
  transmitter crashed mid-send.  Members deliver through a hold-back
  queue in sequence order and NACK missing sequence numbers from their
  peers, which also repairs lossy-network drops.

The sequencer itself is a group member and can crash; submissions to a
dead sequencer simply time out at the submitting client, which aborts
its atomic action -- consistent with the paper's abort-on-failure model.
(Sequencer fail-over via view change is out of the paper's scope; the
paper assumes the group-communication substrate.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.demux import MessageDemux
from repro.net.groups import GroupView
from repro.net.message import Message
from repro.net.network import NetworkInterface
from repro.sim.metrics import estimate_size
from repro.sim.scheduler import Scheduler

_mcast_ids = itertools.count(1)

DATA_KIND = "mcast.data"
SUBMIT_KIND = "mcast.submit"
NACK_KIND = "mcast.nack"
NAIVE_KIND = "mcast.naive"


@dataclass(frozen=True)
class MulticastDelivery:
    """What the application sees for each delivered group message."""

    group: str
    origin: str
    payload: Any
    seq: int


@dataclass(frozen=True)
class _DataMessage:
    group: str
    seq: int
    origin: str
    payload: Any
    mcast_id: int


@dataclass(frozen=True)
class _SubmitMessage:
    group: str
    origin: str
    payload: Any
    mcast_id: int


@dataclass(frozen=True)
class _NackMessage:
    group: str
    seq: int


@dataclass
class _GroupState:
    """Per-group volatile receive state on one member."""

    view: GroupView
    next_seq: int = 1
    seen_ids: set[int] = field(default_factory=set)
    holdback: dict[int, _DataMessage] = field(default_factory=dict)
    sequencer_next: int = 1  # used only while this member is the sequencer


DeliveryHandler = Callable[[MulticastDelivery], None]


class MulticastMember:
    """Shared plumbing: group registry and delivery handlers.

    Receive state is volatile: :meth:`reset` (called on node crash)
    clears it, so a recovered member starts from fresh group state,
    exactly like a recovered process rejoining a group.
    """

    def __init__(self, scheduler: Scheduler, nic: NetworkInterface,
                 demux: MessageDemux, traffic: Any = None) -> None:
        self._scheduler = scheduler
        self._nic = nic
        self._traffic = traffic
        demux.route("mcast.", self._dispatch)
        self._groups: dict[str, _GroupState] = {}
        self._handlers: dict[str, DeliveryHandler] = {}
        self.delivered: list[MulticastDelivery] = []

    @property
    def name(self) -> str:
        return self._nic.name

    def join(self, group: str, view: GroupView, handler: DeliveryHandler,
             from_seq: int = 1) -> None:
        """Start receiving for ``group``; ``handler`` gets each delivery.

        ``from_seq`` is the late-joiner handoff: a member that joins an
        already-running group (e.g. a lessee registering with an entry
        owner) passes the sequencer's next sequence number from the
        registration reply, so it neither NACK-storms for history it can
        never see nor mistakes old frames for fresh ones.
        """
        if self.name not in view:
            raise ValueError(f"{self.name} is not in the view for {group!r}")
        self._groups[group] = _GroupState(view, next_seq=from_seq,
                                          sequencer_next=from_seq)
        self._handlers[group] = handler

    def update_view(self, group: str, view: GroupView) -> None:
        """Adopt a new view for a joined group, keeping sequence state.

        Unlike a leave+join cycle this preserves ``next_seq`` and the
        sequencer counter, so a membership change (a new lessee, an
        expired one pruned) does not reset ordering mid-stream.
        """
        state = self._groups.get(group)
        if state is None:
            raise ValueError(f"{self.name} has not joined {group!r}")
        if self.name not in view:
            raise ValueError(f"{self.name} is not in the view for {group!r}")
        state.view = view

    def leave(self, group: str) -> None:
        self._groups.pop(group, None)
        self._handlers.pop(group, None)

    def joined(self, group: str) -> bool:
        return group in self._groups

    def next_seq(self, group: str) -> int | None:
        """This member's next expected sequence number for ``group``."""
        state = self._groups.get(group)
        return state.next_seq if state is not None else None

    def next_send_seq(self, group: str) -> int | None:
        """The sequence number the next sequenced send will carry.

        Only meaningful on the group's sequencer; registration replies
        hand it to late joiners as their ``from_seq``.
        """
        state = self._groups.get(group)
        return state.sequencer_next if state is not None else None

    def reset(self) -> None:
        """Drop all volatile group state (node crash)."""
        self._groups.clear()
        self._handlers.clear()

    def _dispatch(self, message: Message) -> None:
        if self._traffic is not None:
            self._traffic.record_multicast_received(message.payload,
                                                    message.size)
        self._on_message(message)

    def _size_of(self, data: Any) -> int | None:
        """``data``'s metered size, for a fan-out that transmits one
        payload many times to walk it once (``None`` when unmetered)."""
        return estimate_size(data) if self._traffic is not None else None

    def _transmit(self, member: str, kind: str, data: Any,
                  size: int | None = None) -> None:
        if self._traffic is not None:
            size = self._traffic.record_multicast_sent(data, size)
        self._nic.send(member, kind, data, size)

    def _on_message(self, message: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _hand_up(self, delivery: MulticastDelivery) -> None:
        self.delivered.append(delivery)
        handler = self._handlers.get(delivery.group)
        if handler is not None:
            handler(delivery)


class NaiveMulticastMember(MulticastMember):
    """Unicast-per-member 'multicast' with no guarantees (figure 1 baseline)."""

    def __init__(self, scheduler: Scheduler, nic: NetworkInterface,
                 demux: MessageDemux, stagger: float = 0.0005,
                 traffic: Any = None) -> None:
        super().__init__(scheduler, nic, demux, traffic=traffic)
        self.stagger = stagger

    def send(self, group: str, view: GroupView, payload: Any) -> None:
        """Send ``payload`` to every view member, one unicast at a time.

        Unicast emissions are staggered by :attr:`stagger`; if the sender
        crashes inside the window, later emissions never happen and the
        group observes partial delivery.
        """
        mcast_id = next(_mcast_ids)
        data = _DataMessage(group, seq=0, origin=self.name,
                            payload=payload, mcast_id=mcast_id)
        size = self._size_of(data)
        for position, member in enumerate(view):
            self._scheduler.schedule(position * self.stagger,
                                     self._emit, member, data, size)

    def _emit(self, member: str, data: _DataMessage,
              size: int | None) -> None:
        # NetworkInterface.send is a no-op if this node has crashed, which
        # is exactly the partial-delivery failure mode.
        self._transmit(member, NAIVE_KIND, data, size)

    def _on_message(self, message: Message) -> None:
        if message.kind != NAIVE_KIND:
            return
        data: _DataMessage = message.payload
        if data.group not in self._groups:
            return
        self._hand_up(MulticastDelivery(data.group, data.origin, data.payload, seq=0))


class ReliableOrderedMulticastMember(MulticastMember):
    """Sequencer-ordered reliable multicast with flooding relay and NACKs.

    Each member retains the last ``log_capacity`` delivered data
    messages per group so that it can answer peers' NACKs even after
    delivering (without the log, a gap could only be repaired from
    messages still sitting in somebody's hold-back queue).
    """

    def __init__(self, scheduler: Scheduler, nic: NetworkInterface,
                 demux: MessageDemux,
                 stagger: float = 0.0005, nack_delay: float = 0.05,
                 log_capacity: int = 256, prejoin_capacity: int = 64,
                 traffic: Any = None) -> None:
        super().__init__(scheduler, nic, demux, traffic=traffic)
        self.stagger = stagger
        self.nack_delay = nack_delay
        self.log_capacity = log_capacity
        self.prejoin_capacity = prejoin_capacity
        self._delivery_log: dict[str, dict[int, _DataMessage]] = {}
        self._prejoin: dict[str, list[_DataMessage]] = {}

    # -- pre-join stash ------------------------------------------------------

    def expect(self, group: str) -> None:
        """Stash data frames for ``group`` until :meth:`join` drains them.

        A member that is *about to* join (its registration RPC is in
        flight) calls this first: frames sequenced between the reply
        being computed and the join taking effect would otherwise be
        dropped on the floor, leaving a gap no NACK can see until the
        next frame arrives.  The stash is bounded and per-group, and
        only groups explicitly expected are stashed.
        """
        self._prejoin.setdefault(group, [])

    def unexpect(self, group: str) -> None:
        self._prejoin.pop(group, None)

    def join(self, group: str, view: GroupView, handler: DeliveryHandler,
             from_seq: int = 1) -> None:
        super().join(group, view, handler, from_seq=from_seq)
        for data in self._prejoin.pop(group, []):
            self._receive_data(data)

    def reset(self) -> None:
        super().reset()
        self._delivery_log.clear()
        self._prejoin.clear()

    # -- sending ---------------------------------------------------------

    def send(self, group: str, view: GroupView, payload: Any) -> None:
        """Multicast ``payload`` to ``group`` with reliable ordered delivery.

        The message is submitted to the group's sequencer (first view
        member).  The sender needs no membership in the group.
        """
        if view.empty:
            raise ValueError(f"cannot multicast to empty group {group!r}")
        submit = _SubmitMessage(group, self.name, payload, next(_mcast_ids))
        sequencer = view.members[0]
        if sequencer == self.name:
            self._sequence(submit)
        else:
            self._transmit(sequencer, SUBMIT_KIND, submit)

    # -- receiving ----------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if message.kind == SUBMIT_KIND:
            self._sequence(message.payload)
        elif message.kind == DATA_KIND:
            self._receive_data(message.payload, message.size)
        elif message.kind == NACK_KIND:
            self._answer_nack(message.sender, message.payload)

    def _sequence(self, submit: _SubmitMessage) -> None:
        state = self._groups.get(submit.group)
        if state is None:
            return  # we are not (or no longer) a member; submission is lost
        if self.name != state.view.members[0]:
            return  # stale submission to a non-sequencer; drop it
        seq = state.sequencer_next
        state.sequencer_next += 1
        data = _DataMessage(submit.group, seq, submit.origin,
                            submit.payload, submit.mcast_id)
        size = self._size_of(data)
        for position, member in enumerate(state.view):
            if member == self.name:
                self._receive_data(data, size)
            else:
                self._scheduler.schedule(position * self.stagger,
                                         self._emit, member, data, size)

    def _emit(self, member: str, data: _DataMessage,
              size: int | None) -> None:
        self._transmit(member, DATA_KIND, data, size)

    def _receive_data(self, data: _DataMessage,
                      size: int | None = None) -> None:
        state = self._groups.get(data.group)
        if state is None:
            stash = self._prejoin.get(data.group)
            if stash is not None and len(stash) < self.prejoin_capacity:
                stash.append(data)
            return
        if data.mcast_id in state.seen_ids:
            return
        state.seen_ids.add(data.mcast_id)
        if data.seq < state.next_seq:
            return  # pre-join history or a relayed duplicate; already covered
        # Flooding relay: first receipt is re-transmitted to every peer so
        # that a transmitter crash cannot leave the group partially
        # informed (R-multicast).
        for member in state.view:
            if member != self.name:
                self._transmit(member, DATA_KIND, data, size)
        state.holdback[data.seq] = data
        self._drain_holdback(state)
        if state.next_seq in state.holdback or state.next_seq <= max(
                state.holdback, default=0):
            self._schedule_nack(data.group, state)

    def _drain_holdback(self, state: _GroupState) -> None:
        while state.next_seq in state.holdback:
            data = state.holdback.pop(state.next_seq)
            state.next_seq += 1
            log = self._delivery_log.setdefault(data.group, {})
            log[data.seq] = data
            if len(log) > self.log_capacity:
                del log[min(log)]
            self._hand_up(MulticastDelivery(data.group, data.origin,
                                            data.payload, data.seq))

    # -- gap repair --------------------------------------------------------

    def _schedule_nack(self, group: str, state: _GroupState) -> None:
        if state.holdback and min(state.holdback) > state.next_seq:
            missing = state.next_seq
            self._scheduler.schedule(self.nack_delay, self._send_nack,
                                     group, missing)

    def _send_nack(self, group: str, missing: int) -> None:
        state = self._groups.get(group)
        if state is None or state.next_seq > missing:
            return  # repaired meanwhile
        for member in state.view:
            if member != self.name:
                self._transmit(member, NACK_KIND, _NackMessage(group, missing))
        # Keep nagging until the gap closes or we crash.
        self._scheduler.schedule(self.nack_delay, self._send_nack, group, missing)

    def _answer_nack(self, requester: str, nack: _NackMessage) -> None:
        data = self._delivery_log.get(nack.group, {}).get(nack.seq)
        if data is None:
            state = self._groups.get(nack.group)
            if state is not None:
                data = state.holdback.get(nack.seq)
        if data is not None:
            self._transmit(requester, DATA_KIND, data)

