"""Generator-based cooperative processes.

A process body is a Python generator.  It interacts with the simulation by
yielding:

- a :class:`Timeout` (or a bare ``int``/``float``) to sleep for a virtual
  duration;
- a :class:`~repro.sim.futures.Future` to wait until it settles -- the
  resolved value is sent back into the generator, a failure is thrown into
  it as the stored exception;
- another :class:`Process`, which waits for that process to terminate.

A process is itself a future: it resolves with the generator's return
value, or fails with the exception that escaped the generator.  Killing a
process throws :class:`~repro.sim.errors.ProcessKilled` into the generator
at its current suspension point.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.sim.errors import ProcessKilled
from repro.sim.futures import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Scheduler


class Timeout:
    """Yielded by a process to sleep for ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay})"


class Process(Future):
    """A running generator coupled to the scheduler.

    Created via :meth:`repro.sim.scheduler.Scheduler.spawn`.  The process
    future resolves with the generator's ``return`` value when it finishes
    normally, and fails with the escaped exception otherwise.
    """

    def __init__(self, scheduler: "Scheduler", body: Generator, name: str = "") -> None:
        super().__init__(label=name or getattr(body, "__name__", "process"))
        self._scheduler = scheduler
        self._body = body
        self._waiting_on: Future | None = None
        self._sleep_event = None

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process.

        A process that has already terminated is left untouched.  The
        generator may catch the exception to clean up, but it cannot keep
        running: if it swallows the kill and yields again the kernel
        re-raises.
        """
        if self.done:
            return
        if self._sleep_event is not None:
            self._sleep_event.cancel()
            self._sleep_event = None
        self._waiting_on = None
        self._step_throw(ProcessKilled(reason))

    # -- stepping machinery -------------------------------------------------

    def _start(self) -> None:
        self._step_send(None)

    def _step_send(self, value: Any) -> None:
        try:
            yielded = self._body.send(value)
        except StopIteration as stop:
            self.try_resolve(stop.value)
            return
        except BaseException as exc:
            self.try_fail(exc)
            return
        self._handle_yield(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            yielded = self._body.throw(exc)
        except StopIteration as stop:
            self.try_resolve(stop.value)
            return
        except BaseException as escaped:
            self.try_fail(escaped)
            return
        if isinstance(exc, ProcessKilled):
            # The body swallowed the kill and tried to continue.
            self._body.close()
            self.try_fail(exc)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            yielded = Timeout(float(yielded))
        if isinstance(yielded, Timeout):
            self._sleep_event = self._scheduler.schedule(yielded.delay, self._wake_from_sleep)
            return
        if isinstance(yielded, Future):
            self._waiting_on = yielded
            yielded.add_callback(self._wake_from_future)
            return
        self.try_fail(TypeError(f"process {self.label!r} yielded unsupported value {yielded!r}"))

    def _wake_from_sleep(self) -> None:
        self._sleep_event = None
        self._step_send(None)

    def _wake_from_future(self, fut: Future) -> None:
        if self._waiting_on is not fut or self.done:
            return  # stale wake-up (e.g. the process was killed meanwhile)
        self._waiting_on = None
        if fut.failed:
            self._step_throw(fut.exception())  # type: ignore[arg-type]
        else:
            self._step_send(fut.result())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.label!r} {self.state.value}>"
