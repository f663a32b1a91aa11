"""Message latency models.

A latency model maps each transmission to a delay in virtual time; the
network applies its one model to every message on every interface.
"""

from __future__ import annotations

import abc


class LatencyModel(abc.ABC):
    """Strategy producing per-message delays."""

    @abc.abstractmethod
    def sample(self, sender: str, target: str) -> float:
        """Delay for one message from ``sender`` to ``target``."""

    @property
    def typical(self) -> float:
        """A representative delay, used to derive default RPC timeouts."""
        return self.sample("", "")


class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 0.01) -> None:
        if delay < 0:
            raise ValueError(f"negative latency: {delay}")
        self.delay = delay

    def sample(self, sender: str, target: str) -> float:
        return self.delay

    @property
    def typical(self) -> float:
        return self.delay
