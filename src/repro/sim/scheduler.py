"""The discrete-event scheduler and virtual clock.

One :class:`Scheduler` instance drives an entire simulated system.  Time is
a float starting at 0.0 and only moves forward, to the timestamp of each
fired event.  The run is deterministic: events at equal times fire in
scheduling order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.sim.errors import SimulationLimitExceeded
from repro.sim.events import Event, EventQueue
from repro.sim.process import Process


class Scheduler:
    """Event loop with a virtual clock and process management."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (budget accounting)."""
        return self._events_fired

    # -- scheduling ----------------------------------------------------------

    # ``schedule``/``schedule_at``/``call_soon`` each spell out
    # ``EventQueue.push`` of a fresh event, and ``step`` spells out
    # ``EventQueue.pop``: every message, timer and wake-up in a run is
    # one of each, so each costs one python frame rather than three.

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        time = self._now + delay
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args)
        queue = event._queue = self._queue
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args)
        queue = event._queue = self._queue
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        time = self._now
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args)
        queue = event._queue = self._queue
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    # -- processes -----------------------------------------------------------

    def spawn(self, body: Generator, name: str = "") -> Process:
        """Create and start a :class:`Process` from a generator.

        The first step of the process runs via a zero-delay event, so
        ``spawn`` itself never executes user code.
        """
        process = Process(self, body, name)
        self.call_soon(process._start)
        return process

    # -- running -------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Return ``False`` if the queue was empty."""
        queue = self._queue
        heap = queue._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                event._queue = None  # fired: a late cancel() is a no-op
                queue._live -= 1
                self._now = event.time
                self._events_fired += 1
                event.fn(*event.args)
                return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or budget spent.

        Returns the virtual time at which the run stopped.  Exceeding
        ``max_events`` raises :class:`SimulationLimitExceeded` because it
        almost always indicates a livelock in the simulated protocols.
        """
        fired = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            if max_events is not None and fired >= max_events:
                raise SimulationLimitExceeded(
                    f"exceeded {max_events} events at t={self._now:.3f}"
                )
            self.step()
            fired += 1
        return self._now

    def run_until_settled(self, future, until: float | None = None,
                          max_events: int | None = None) -> Any:
        """Run until ``future`` settles, then return its result.

        Raises ``RuntimeError`` if the event queue drains (or ``until``
        passes) while the future is still pending -- that means the
        simulated system deadlocked waiting for something that can never
        happen.
        """
        fired = 0
        while not future.done:
            if until is not None and self._now >= until:
                raise RuntimeError(f"future {future.label!r} still pending at t={self._now}")
            if max_events is not None and fired >= max_events:
                raise SimulationLimitExceeded(
                    f"exceeded {max_events} events waiting for {future.label!r}"
                )
            if not self.step():
                raise RuntimeError(
                    f"event queue drained with future {future.label!r} still pending"
                )
            fired += 1
        return future.result()
