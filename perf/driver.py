"""Load generation, span recording and the end-of-run audit.

Shared by the five workloads of :mod:`perf.workloads`: a
:class:`SpanLog` that wraps every transaction body so each logical
transaction leaves one :class:`Span` (simulated clock), the closed-loop
and open-loop drivers that feed it, :func:`audit` -- the one
correctness check every workload ends with -- and :func:`execute`,
which runs one workload once and returns everything the metrics are
computed from.

Two clocks never mix here: ``Span`` fields and ``load_started`` /
``load_finished`` are *simulated* seconds; ``cpu_s`` / ``wall_s`` /
``build_cpu_s`` are *host* seconds of this python process.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

from repro import ClientRuntime, DistributedSystem, FaultPlan, Txn, Uid
from repro.workload import TransactionStream, run_streams

#: A transaction slower than this many simulated seconds (or failed)
#: misses the service-level objective.
SLO_SIM_S = 1.0
#: The load phase's host CPU time is read every this many transaction
#: attempts, cutting it into slices that line up across repeats of one
#: seed (see :attr:`RunResult.cpu_slices`).
MARK_EVERY = 64

Body = Callable[[Txn], Generator[Any, Any, Any]]
#: ``pick(index) -> (uid, body, adds)``: the object a transaction
#: touches, its body, and how much a commit adds to that counter.
Pick = Callable[[int], "tuple[Uid, Body, int]"]


def invoke_ops(uid: Uid, *ops: tuple) -> Body:
    """A body invoking ``(op, *args)`` tuples on ``uid`` in order."""
    def body(txn: Txn) -> Generator[Any, Any, Any]:
        value = None
        for op, *args in ops:
            value = yield from txn.invoke(uid, op, *args)
        return value
    return body


@dataclass
class Span:
    """One logical transaction, first due time to final outcome."""

    stream: int
    index: int
    uid: Uid
    adds: int
    due: float = math.nan          # closed loop: the first attempt's start
    start: float = math.nan        # first attempt began
    invoke_done: float = math.nan  # final attempt's invocations returned
    end: float = math.nan
    attempts: int = 0
    committed: bool = False
    reason: str | None = None

    @property
    def latency(self) -> float:
        """Due time to outcome; a failed transaction never finished."""
        return self.end - self.due if self.committed else math.inf

    def as_row(self) -> dict[str, Any]:
        return {"stream": self.stream, "index": self.index,
                "uid": str(self.uid), "due": self.due, "start": self.start,
                "invoke_done": self.invoke_done, "end": self.end,
                "attempts": self.attempts,
                "outcome": "committed" if self.committed
                else f"failed:{self.reason}"}


class SpanLog:
    """Records one :class:`Span` per logical transaction, in memory."""

    def __init__(self, system: DistributedSystem) -> None:
        self._system = system
        self.spans: list[Span] = []
        self._streams: list[tuple[TransactionStream, list[Span | None]]] = []
        self._tickers: list[Generator[Any, Any, None]] = []
        self._attempts = 0
        self.cpu_marks: list[float] = []
        #: How late the open-loop generator released a request (0 by
        #: construction in simulated time; kept so a driver bug shows).
        self.gen_late = 0.0

    def _work(self, span: Span, body: Body) -> Body:
        clock = self._system.scheduler

        def work(txn: Txn) -> Generator[Any, Any, Any]:
            self._attempts += 1
            if self._attempts % MARK_EVERY == 0:
                self.cpu_marks.append(time.process_time())
            if span.attempts == 0:
                span.start = clock.now
                if math.isnan(span.due):
                    span.due = span.start
            span.attempts += 1
            value = yield from body(txn)
            span.invoke_done = clock.now
            return value
        return work

    def _drive(self, span: Span, body: Body, client: ClientRuntime,
               rng: Any, max_attempts: int, backoff: float,
               deadline: float = math.inf) -> Generator[Any, Any, None]:
        """Run one logical transaction to its final outcome.

        Aborted attempts are retried after a seeded exponential
        ``backoff`` until one commits, ``max_attempts`` are spent, or
        ``deadline`` simulated seconds have passed since it was due.
        """
        clock = self._system.scheduler
        work = self._work(span, body)
        while True:
            result = yield client.transaction(work)
            if (result.committed or span.attempts >= max_attempts
                    or clock.now - span.due >= deadline):
                break
            yield rng.exponential(backoff)
        span.end = clock.now
        span.committed = result.committed
        span.reason = result.reason

    # -- closed loop ---------------------------------------------------------

    def stream(self, stream_id: int, client: ClientRuntime, pick: Pick,
               count: int, think: float, max_attempts: int,
               read_only: bool = False) -> TransactionStream:
        """A closed-loop client: the next request waits for the last."""
        spans: list[Span | None] = [None] * count
        bodies: dict[int, Body] = {}

        def factory(index: int) -> Body:
            span = spans[index]
            if span is None:
                uid, bodies[index], adds = pick(index)
                span = spans[index] = Span(stream_id, index, uid, adds)
                self.spans.append(span)
            return self._work(span, bodies[index])

        stream = TransactionStream(
            client, factory, count,
            rng=self._system.rng.substream(f"perf/stream{stream_id}"),
            mean_think_time=think, max_attempts=max_attempts,
            read_only=read_only)
        self._streams.append((stream, spans))
        return stream

    def ticker(self, stream_id: int, client: ClientRuntime, pick: Pick,
               period: float, max_attempts: int) -> None:
        """A background writer for :meth:`run_streams`.

        Issues one transaction every ``period`` simulated seconds (the
        seed sets the phase) for exactly as long as the closed-loop
        streams run, however long that turns out to be.  Periodic, not
        Poisson: how many writes a run sees should not be the luck of
        a seed.
        """
        scheduler = self._system.scheduler
        rng = self._system.rng.substream(f"perf/ticker{stream_id}")

        def streams_done() -> bool:
            return all(len(stream.report.outcomes) == stream.count
                       for stream, _ in self._streams)

        def tick() -> Generator[Any, Any, None]:
            index = 0
            due = scheduler.now + rng.uniform(0.0, period)
            while True:
                yield max(0.0, due - scheduler.now)
                due += period
                if streams_done():
                    return
                uid, body, adds = pick(index)
                span = Span(stream_id, index, uid, adds)
                self.spans.append(span)
                yield from self._drive(span, body, client, rng, max_attempts,
                                       backoff=period / 10)
                index += 1

        self._tickers.append(tick())

    def run_streams(self) -> None:
        """Run every registered stream to completion; close its spans."""
        scheduler = self._system.scheduler
        tickers = [scheduler.spawn(tick, name="perf-ticker")
                   for tick in self._tickers]
        run_streams(self._system, [stream for stream, _ in self._streams],
                    timeout=100_000.0)
        for process in tickers:
            scheduler.run_until_settled(process,
                                        until=scheduler.now + 1_000.0)
        for stream, spans in self._streams:
            for span, outcome in zip(spans, stream.report.outcomes,
                                     strict=True):
                assert span is not None and span.attempts == outcome.attempts
                span.end = outcome.finished_at
                span.committed = outcome.committed
                span.reason = outcome.reason

    # -- open loop -----------------------------------------------------------

    def run_open_loop(self, clients: Sequence[ClientRuntime],
                      schedule: Sequence[float], pick: Pick,
                      max_attempts: int, deadline: float,
                      backoff: float) -> None:
        """Release one transaction per ``schedule`` entry, on time.

        ``schedule`` holds absolute simulated due times.  Requests are
        released whether or not earlier ones finished (independent
        users), each is timed from its *due* time, retried with seeded
        exponential ``backoff`` until it commits, and counted failed
        once ``max_attempts`` or ``deadline`` (simulated seconds after
        due) runs out.
        """
        scheduler = self._system.scheduler
        rng = self._system.rng.substream("perf/open-loop")

        released = []

        def arrivals() -> Generator[Any, Any, None]:
            for index, due in enumerate(schedule):
                if due > scheduler.now:
                    yield due - scheduler.now
                self.gen_late = max(self.gen_late, scheduler.now - due)
                uid, body, adds = pick(index)
                lane = index % len(clients)
                span = Span(lane, index, uid, adds, due=due)
                self.spans.append(span)
                released.append(scheduler.spawn(
                    self._drive(span, body, clients[lane], rng, max_attempts,
                                backoff, deadline), name=f"open{index}"))

        horizon = scheduler.now + 100_000.0
        scheduler.run_until_settled(
            scheduler.spawn(arrivals(), name="open-loop"), until=horizon)
        for process in released:
            scheduler.run_until_settled(process, until=horizon)

    # -- summaries -----------------------------------------------------------

    def fingerprint(self) -> str:
        """sha1 over every transaction's simulated outcome, in order."""
        digest = hashlib.sha1()
        for span in sorted(self.spans, key=lambda s: (s.stream, s.index)):
            digest.update(repr((span.stream, span.index, span.committed,
                                span.attempts, span.end - span.due,
                                span.end)).encode())
        return digest.hexdigest()


@dataclass
class Deployment:
    """A booted workload, ready for its load phase."""

    system: DistributedSystem
    log: SpanLog
    uids: list[Uid]
    auditor: ClientRuntime
    #: Runs the whole load phase (simulated clock advances inside).
    load: Callable[[], None]
    #: Simulated seconds to let repairs play out before the audit.
    settle: float
    #: Original ``(Sv, St)`` placement per uid, for the re-Include audit.
    homes: dict[Uid, tuple[list[str], list[str]]]
    #: ``(host, up_at)`` of every crashed host brought back.
    outages: list[tuple[str, float]] = field(default_factory=list)
    #: When each crashed store/server host's recovery manager finished.
    recovered_at: dict[str, float] = field(default_factory=dict)
    #: Records returned by live ``plan_rebalance`` epochs.
    flips: list[dict[str, Any]] = field(default_factory=list)

    def outage(self, plan: FaultPlan, host: str, start: float,
               end: float) -> None:
        """Script a crash window; time the host's way back in."""
        plan.outage(start, end, host)
        self._watch(host, end)

    def recover_now(self, host: str) -> None:
        """Bring back a crashed host now; time its way back in."""
        self._watch(host, self.system.scheduler.now)
        self.system.nodes[host].recover()

    def _watch(self, host: str, up_at: float) -> None:
        """Note when ``host``'s recovery manager finishes after ``up_at``.

        The watcher is the benchmark's own process: it polls the
        manager (no RPCs, 50 sim-ms resolution) so
        ``cluster.reinclude_sim_s`` needs no hook inside ``repro``.
        """
        self.outages.append((host, up_at))
        manager = self.system.recovery_managers.get(host)
        if manager is None:
            return
        scheduler = self.system.scheduler
        done = manager.recoveries_completed

        def watch() -> Generator[Any, Any, None]:
            if up_at > scheduler.now:
                yield up_at - scheduler.now
            while manager.recoveries_completed == done:
                yield 0.05
            self.recovered_at[host] = scheduler.now

        scheduler.spawn(watch(), name=f"perf-watch:{host}")


@dataclass
class RunResult:
    """Everything one execution of one workload produced."""

    spans: list[Span]
    load_started: float    # simulated
    cpu_s: float           # host CPU seconds of the load phase
    #: ``cpu_s`` cut at every ``MARK_EVERY``-th transaction attempt.
    #: Repeats of one seed do identical work slice for slice, so the
    #: fastest observation of each slice can be taken across repeats.
    cpu_slices: list[float]
    wall_s: float          # host wall seconds of the load phase
    build_cpu_s: float     # host CPU seconds of boot + namespace creation
    fingerprint: str
    counts: dict[str, float]
    audit: dict[str, int]
    gen_late: float        # simulated

    @property
    def offered(self) -> int:
        return len(self.spans)

    @property
    def committed(self) -> int:
        return sum(1 for span in self.spans if span.committed)

    @property
    def load_finished(self) -> float:
        return max(span.end for span in self.spans)

    @property
    def latencies(self) -> list[float]:
        return [span.latency for span in self.spans]

    @property
    def ledger_violations(self) -> int:
        return sum(self.audit.values())


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile; ``inf`` samples sort last."""
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


# -- the end-of-run audit ------------------------------------------------------


def audit(dep: Deployment) -> dict[str, int]:
    """Re-read every counter and every binding; count what is wrong.

    - ``lost`` / ``invented``: committed increments missing from, or
      uncommitted increments present in, a counter's final value, read
      back through a transaction (an unreadable counter loses all of
      its increments; a counter no transaction touched is checked on
      stable storage instead);
    - ``stale``: a store still listed in ``St`` while holding an older
      state than a peer -- a binding that would serve stale data;
    - ``cache_ledger``: cache-served reads that escaped lease or epoch;
    - ``misplaced`` / ``replica_disagreements``: shard databases holding
      an entry they do not own, or owners disagreeing on its content;
    - ``not_reincluded``: a recovered store or server still missing
      from the ``St``/``Sv`` it was created in, or a recovered shard
      host not serving again.
    """
    system = dep.system
    expected: dict[Uid, int] = {}
    for span in dep.log.spans:
        expected[span.uid] = (expected.get(span.uid, 0)
                              + (span.adds if span.committed else 0))

    found = dict.fromkeys(("lost", "invented", "stale", "cache_ledger",
                           "misplaced", "replica_disagreements",
                           "not_reincluded"), 0)
    for uid in dep.uids:
        view = system.db_st(uid)
        versions = system.store_versions(uid)
        newest = max(versions.values(), default=0)
        found["stale"] += sum(1 for host in view
                              if versions.get(host, newest) < newest)
        if uid in expected:
            result = system.run_transaction(
                dep.auditor, invoke_ops(uid, ("get",)), read_only=True,
                timeout=60.0)
            value = result.value if result.committed else 0
            found["lost"] += max(0, expected[uid] - value)
            found["invented"] += max(0, value - expected[uid])
        else:
            # No transaction touched it: any version past the one it
            # was created with is a write nobody committed.
            found["invented"] += newest - 1
        sv_home, st_home = dep.homes[uid]
        found["not_reincluded"] += len(set(st_home) - set(view))
        found["not_reincluded"] += len(set(sv_home) - set(system.db_sv(uid)))

    found["cache_ledger"] = sum(len(cache.ledger_violations())
                                for cache in system.entry_caches.values())
    found["not_reincluded"] += sum(
        1 for resyncer in system.shard_resyncers.values()
        if not resyncer.serving)

    router = system.shard_router
    if router is not None:
        replication = system.config.nameserver_replication
        for uid in dep.uids:
            text = str(uid)
            owners = router.preference_list(uid, replication)
            states = []
            for shard, db in system.db.shards.items():
                if db.knows(text) != (shard in owners):
                    found["misplaced"] += 1
            for shard in owners:
                db = system.db.shards[shard]
                if not db.knows(text):
                    continue  # already counted as misplaced
                snapshot = db.get_server_with_uses((0,), text)
                states.append((tuple(snapshot.hosts),
                               tuple(db.get_view((0,), text))))
            system._release_probe_locks()
            if len(set(states)) > 1:
                found["replica_disagreements"] += 1
    return found


# -- raw layer counts ----------------------------------------------------------


def collect_counts(dep: Deployment) -> dict[str, float]:
    """Exact per-layer work counts of the run so far, by layer."""
    system = dep.system
    snapshot = system.metrics.snapshot()

    def total(suffix: str) -> int:
        return sum(value for name, value in snapshot.items()
                   if name.endswith(suffix) and isinstance(value, int))

    def p50_ms(name: str) -> float:
        summary = snapshot.get(name)
        return summary["p50"] * 1e3 if summary and summary["count"] else 0.0

    agents = {id(agent): agent for node in system.nodes.values()
              for agent in (node.rpc, node.sync_rpc)}
    batch = snapshot.get("commit_batch.batch_size")
    caches = list(system.entry_caches.values())
    return {
        "sim.events": system.scheduler.events_fired,
        "sim.queue_compactions": system.scheduler._queue.compactions,
        "net.rpcs": sum(agent.calls_issued for agent in agents.values()),
        "net.wire_msgs": system.network.messages_sent,
        "net.bytes": total(".bytes_out"),
        "net.mcasts": total(".mcasts_out"),
        "net.msgs_dropped": system.network.messages_dropped,
        "net.batch_mean_items": (batch["mean"] if batch and batch["count"]
                                 else 0.0),
        "actions.lock_refused_attempts": total("txn.abort.lock_refused"),
        "storage.log_forces": total(".log_forces"),
        "replication.stores_excluded": total("commit.stores_excluded"),
        "replication.replicas_masked": total("policy.active.replicas_masked"),
        "naming.cache_enabled": 1.0 if caches else 0.0,
        "naming.cache_hits": sum(cache.hits for cache in caches),
        "naming.cache_misses": sum(cache.misses for cache in caches),
        "naming.get_server_rpcs": total("server_db.get_server"),
        "naming.sim_get_server_ms_p50": p50_ms("naming.get_server_latency"),
        "naming.pushes_sent": total("coherence.pushes_sent"),
        "naming.entries_installed": total("replica_io.entries_installed"),
        "naming.read_repairs": total("read_repair.triggered"),
        "naming.divergence_repairs": total("replica_io.divergence_repairs"),
        "naming.stale_ring_retries": total("replica_io.stale_ring_retries"),
        "cluster.attempts": total("txn.committed") + total("txn.aborted"),
    }


def maintenance_durations(dep: Deployment) -> dict[str, float]:
    """Simulated seconds the scripted repairs took, once settled.

    ``resync``: a crashed shard host's recovery to its converged resync;
    ``reshard``: a live ``plan_rebalance`` from start to garbage
    collection; ``reinclude``: a crashed store/server host's recovery to
    its recovery manager's completed Exclude -> refresh -> Include.  Each
    is the longest such interval of the run, 0 when none happened.
    """
    system = dep.system
    resync = reinclude = 0.0
    for host, up_at in dep.outages:
        resyncer = system.shard_resyncers.get(host)
        if resyncer is not None and resyncer.last_resync_at is not None:
            resync = max(resync, resyncer.last_resync_at - up_at)
        if host in dep.recovered_at:
            reinclude = max(reinclude, dep.recovered_at[host] - up_at)
    reshard = max((flip["done_at"] - flip["started_at"]
                   for flip in dep.flips), default=0.0)
    return {"naming.resync_sim_s": resync, "naming.reshard_sim_s": reshard,
            "cluster.reinclude_sim_s": reinclude}


# -- one execution ---------------------------------------------------------------


def execute(build: Callable[[int, float], Deployment], seed: int,
            scale: float, profiler: Any | None = None,
            check: bool = True) -> RunResult:
    """Boot a fresh deployment, run its load phase, settle, audit.

    Only the load phase is timed (``cpu_s``/``wall_s``); boot is timed
    separately as ``build_cpu_s``; settle and audit are untimed.  With
    a ``profiler`` (``cProfile.Profile``) the load phase runs under it.
    ``check=False`` skips settle and audit: repeats of an already
    audited run are compared by fingerprint instead.
    """
    gc.collect()  # the previous repeat's system, not this one's bill
    began = time.process_time()
    dep = build(seed, scale)
    build_cpu_s = time.process_time() - began
    scheduler = dep.system.scheduler
    load_started = scheduler.now

    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    try:
        dep.load()
    finally:
        if profiler is not None:
            profiler.disable()
    cpu_end = time.process_time()
    wall_s = time.perf_counter() - wall0
    marks = [cpu0, *dep.log.cpu_marks, cpu_end]

    counts = collect_counts(dep)
    found: dict[str, int] = {}
    if check:
        dep.system.run(until=scheduler.now + dep.settle, max_events=None)
        counts.update(maintenance_durations(dep))
        found = audit(dep)
    return RunResult(
        spans=dep.log.spans, load_started=load_started,
        cpu_s=cpu_end - cpu0,
        cpu_slices=[b - a for a, b in zip(marks, marks[1:])],
        wall_s=wall_s, build_cpu_s=build_cpu_s,
        fingerprint=dep.log.fingerprint(), counts=counts, audit=found,
        gen_late=dep.log.gen_late)
