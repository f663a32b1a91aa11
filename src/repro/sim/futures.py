"""Single-assignment futures linking asynchronous completions to processes.

A :class:`Future` is resolved (or failed) exactly once.  Processes wait on
futures by yielding them; non-process code attaches callbacks.  Futures are
the only synchronisation primitive in the kernel -- timers, RPC replies,
lock grants and process termination are all expressed through them.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class FutureState(enum.Enum):
    """Lifecycle states of a :class:`Future`."""

    PENDING = "pending"
    RESOLVED = "resolved"
    FAILED = "failed"


class Future:
    """A write-once result cell.

    Callbacks added with :meth:`add_callback` run synchronously when the
    future settles (or immediately if it has already settled).  Exceptions
    stored via :meth:`fail` are re-raised by :meth:`result` and are thrown
    into any waiting process.
    """

    __slots__ = ("_state", "done", "_value", "_exception", "_callbacks",
                 "label")

    def __init__(self, label: str = "") -> None:
        self._state = FutureState.PENDING
        #: Whether the future has settled.  A plain attribute kept in
        #: step with ``_state``: every event-loop turn and wake-up
        #: reads it, which as a property was a python frame each.
        self.done = False
        self._value: Any = None
        self._exception: BaseException | None = None
        # Lazily allocated: most futures (every RPC call makes one) get
        # exactly one waiter or none, so the list is built on demand.
        self._callbacks: list[Callable[["Future"], None]] | None = None
        self.label = label

    @property
    def failed(self) -> bool:
        return self._state is FutureState.FAILED

    def resolve(self, value: Any = None) -> None:
        """Settle the future successfully with ``value``."""
        if self.done:
            raise RuntimeError(f"future {self.label!r} already settled")
        self._state = FutureState.RESOLVED
        self.done = True
        self._value = value
        self._run_callbacks()

    def fail(self, exception: BaseException) -> None:
        """Settle the future with an exception."""
        if self.done:
            raise RuntimeError(f"future {self.label!r} already settled")
        self._state = FutureState.FAILED
        self.done = True
        self._exception = exception
        self._run_callbacks()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if still pending; return whether this call settled it."""
        if self.done:
            return False
        self.resolve(value)
        return True

    def try_fail(self, exception: BaseException) -> bool:
        """Fail if still pending; return whether this call settled it."""
        if self.done:
            return False
        self.fail(exception)
        return True

    def result(self) -> Any:
        """Return the value, re-raising the stored exception if failed."""
        if self._state is FutureState.PENDING:
            raise RuntimeError(f"future {self.label!r} is still pending")
        if self._state is FutureState.FAILED:
            assert self._exception is not None
            raise self._exception
        return self._value

    def exception(self) -> BaseException | None:
        """Return the stored exception, or ``None``."""
        return self._exception

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when the future settles (now, if already settled)."""
        if self.done:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self.label!r} {self._state.value}>"
