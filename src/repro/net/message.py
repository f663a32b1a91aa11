"""Network messages.

A :class:`Message` is an opaque envelope: the network layer looks only at
``sender``/``target``; the payload's meaning belongs to the protocol that
sent it (RPC, multicast, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_message_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """An addressed datagram.

    ``size`` is the payload's metered wire size when the sending
    protocol layer measured one, so the receiving end's byte counters
    need not walk the payload again.
    """

    sender: str
    target: str
    kind: str
    payload: Any
    size: int | None = None
    msg_id: int = field(default_factory=_message_ids.__next__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.msg_id} {self.sender}->{self.target} "
                f"kind={self.kind!r}>")
