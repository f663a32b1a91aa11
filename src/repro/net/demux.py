"""Message demultiplexing.

A node runs several protocols over one network interface (RPC, group
multicast).  The :class:`MessageDemux` owns the interface's delivery
callback and routes each message to the protocol that registered its
kind prefix.
"""

from __future__ import annotations

from typing import Callable

from repro.net.message import Message
from repro.net.network import NetworkInterface


class MessageDemux:
    """Routes inbound messages by longest matching kind prefix."""

    def __init__(self, nic: NetworkInterface) -> None:
        self._nic = nic
        self._nic.on_message = self._dispatch
        self._routes: dict[str, Callable[[Message], None]] = {}
        # kind -> its longest-prefix handler (``None``: no route),
        # resolved on a kind's first message and dropped by ``route``.
        self._resolved: dict[str, Callable[[Message], None] | None] = {}

    def route(self, kind_prefix: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages whose kind starts with the prefix."""
        if kind_prefix in self._routes:
            raise ValueError(f"route already registered: {kind_prefix!r}")
        self._routes[kind_prefix] = handler
        self._resolved.clear()

    def _dispatch(self, message: Message) -> None:
        kind = message.kind
        try:
            handler = self._resolved[kind]
        except KeyError:
            prefixes = [p for p in self._routes if kind.startswith(p)]
            handler = self._resolved[kind] = (
                self._routes[max(prefixes, key=len)] if prefixes else None)
        if handler is not None:
            handler(message)
