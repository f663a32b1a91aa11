"""Client transaction streams.

A :class:`TransactionStream` runs on a client runtime: it issues
``count`` transactions sequentially, waiting an exponential think time
between them, optionally retrying aborted transactions a bounded number
of times (the paper's model: an aborted action may simply be
restarted, which re-binds and re-activates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.cluster.client import ClientRuntime, Txn, TxnResult
from repro.sim.process import Process, Timeout
from repro.sim.rng import SeededRng

WorkFactory = Callable[[int], Callable[[Txn], Generator[Any, Any, Any]]]


def invoke(uid: Any, op: str, *args: Any):
    """A transaction body that invokes one operation on one object."""
    def work(txn: Txn) -> Generator[Any, Any, Any]:
        return (yield from txn.invoke(uid, op, *args))
    return work


@dataclass
class StreamOutcome:
    """One logical transaction's final fate after retries."""

    committed: bool
    attempts: int
    reason: str | None
    latency: float  # from first attempt start to final attempt end
    finished_at: float = 0.0  # virtual time of the final attempt's end


@dataclass
class WorkloadReport:
    """Aggregate view over one or more finished streams."""

    outcomes: list[StreamOutcome] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def committed(self) -> int:
        return sum(1 for o in self.outcomes if o.committed)

    @property
    def aborted(self) -> int:
        return self.offered - self.committed

    @property
    def commit_rate(self) -> float:
        return self.committed / self.offered if self.offered else 0.0

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes)

    @property
    def retries(self) -> int:
        return self.total_attempts - self.offered

    def abort_reasons(self) -> dict[str, int]:
        reasons: dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.committed and outcome.reason:
                bucket = outcome.reason.split(":", 1)[0]
                reasons[bucket] = reasons.get(bucket, 0) + 1
        return reasons

    def mean_latency(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.latency for o in self.outcomes) / len(self.outcomes)

    def merge(self, other: "WorkloadReport") -> "WorkloadReport":
        return WorkloadReport(self.outcomes + other.outcomes)


class TransactionStream:
    """Issues a sequence of transactions from one client."""

    def __init__(
        self,
        client: ClientRuntime,
        work_factory: WorkFactory,
        count: int,
        rng: SeededRng,
        mean_think_time: float = 0.1,
        max_attempts: int = 1,
        read_only: bool = False,
    ) -> None:
        self.client = client
        self.work_factory = work_factory
        self.count = count
        self.rng = rng
        self.mean_think_time = mean_think_time
        self.max_attempts = max_attempts
        self.read_only = read_only
        self.report = WorkloadReport()

    def spawn(self) -> Process:
        """Start the stream; the process resolves to its WorkloadReport."""
        return self.client.node.scheduler.spawn(
            self._run(), name=f"stream:{self.client.node.name}")

    def _run(self) -> Generator[Any, Any, WorkloadReport]:
        for index in range(self.count):
            if self.mean_think_time > 0:
                yield Timeout(self.rng.exponential(self.mean_think_time))
            yield from self._run_one(index)
        return self.report

    def _run_one(self, index: int) -> Generator[Any, Any, None]:
        started = self.client.node.scheduler.now
        result: TxnResult | None = None
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            work = self.work_factory(index)
            process = self.client.transaction(work, read_only=self.read_only,
                                              name=f"txn{index}")
            result = yield process
            if result.committed:
                break
            if attempts < self.max_attempts:
                # Back off briefly before restarting the action.
                yield Timeout(self.rng.exponential(self.mean_think_time or 0.05))
        assert result is not None
        finished = self.client.node.scheduler.now
        self.report.outcomes.append(StreamOutcome(
            committed=result.committed, attempts=attempts,
            reason=result.reason, latency=finished - started,
            finished_at=finished))


def run_streams(system, streams: list[TransactionStream],
                timeout: float = 10_000.0) -> WorkloadReport:
    """Run all streams to completion; return the merged report.

    ``timeout`` bounds the whole run: one absolute deadline is fixed
    before any stream is awaited, so a slow early stream cannot extend
    the time granted to later ones (all streams run concurrently; the
    per-process wait is just "the rest of the shared budget").
    """
    processes = [stream.spawn() for stream in streams]
    deadline = system.scheduler.now + timeout
    for process in processes:
        system.scheduler.run_until_settled(process, until=deadline)
    merged = WorkloadReport()
    for stream in streams:
        merged = merged.merge(stream.report)
    return merged
