"""Scheduled events and the event queue.

Events are ordered by ``(time, seq)``: two events scheduled for the same
virtual time fire in the order they were scheduled, which keeps runs
deterministic without relying on heap tie-breaking behaviour.  The heap
holds ``(time, seq, event)`` tuples, so that order is C tuple comparison
and ``seq`` (unique per scheduler) keeps it from ever reaching the event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class Event:
    """A callback scheduled to fire at a virtual time.

    Events are created through :meth:`repro.sim.scheduler.Scheduler.schedule`
    rather than directly.  An event may be cancelled before it fires, in
    which case the scheduler silently discards it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue: "EventQueue | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Cancelling an event still queued updates the queue's live
        count; cancelling one that already fired (or was never queued)
        is a no-op beyond setting the flag.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            queue = self._queue
            self._queue = None
            queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} fn={getattr(self.fn, '__name__', self.fn)!r}>"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Cancelled events are dropped lazily on pop, which makes cancellation
    O(1); when the dead entries come to outnumber the live ones the heap
    is compacted (rebuilt from the live events), so a long run whose
    timers are mostly cancelled -- every successful RPC cancels its
    timeout -- cannot accumulate an unbounded tail of tombstones.
    """

    # Compaction never triggers below this heap size: tiny queues churn
    # through cancellations constantly and a rebuild there costs more
    # than the tombstones do.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        # Live (queued, not cancelled) events, maintained by push/pop/
        # cancel so __len__ and __bool__ are O(1) -- both sit on the
        # scheduler's hot path, and a lazy-deletion heap can hold far
        # more dead entries than live ones.
        self._live = 0
        self.compactions = 0

    def _note_cancelled(self) -> None:
        self._live -= 1
        if (len(self._heap) >= self.COMPACT_MIN_SIZE
                and self._live * 2 < len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from its live events, dropping tombstones.

        ``(time, seq)`` is a total order, so heapify over the surviving
        events reproduces exactly the pop order the lazy heap would have
        produced -- compaction is invisible to the scheduler.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self.compactions += 1

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.seq, event))
        if not event.cancelled:
            event._queue = self
            self._live += 1

    def pop(self) -> Event | None:
        """Remove and return the next live event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                event._queue = None  # fired: a late cancel() is a no-op
                self._live -= 1
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the virtual time of the next live event, or ``None``."""
        while self._heap:
            if self._heap[0][2].cancelled:
                heapq.heappop(self._heap)
                continue
            return self._heap[0][0]
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
