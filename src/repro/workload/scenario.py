"""The declarative scenario spec and the one runner that executes it.

A :class:`Scenario` says *what* an experiment is -- deployment shape,
``SystemConfig`` settings, workload streams, a fault/driver script,
auditors, the counters its row reports, and what a clean row looks
like.  :func:`execute` is the only place that knows *how* one runs:

    boot the deployment -> script (faults, drivers, warm-up) -> load
    -> wait for drivers -> settle -> auditors -> counters
    -> lock quiescence -> row

Everything the scenarios share is written here once: the
:class:`Counter` object, the deployment builder, the closed-loop stream
factory and its commit ledger, and the row summaries.  This module and
:mod:`repro.workload.scenarios` are imported on demand (benchmarks,
``python -m repro.workload``), never by ``import repro.workload``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.actions.locks import LockMode
from repro.cluster.system import DistributedSystem, SystemConfig
from repro.core.objects import PersistentObject, operation
from repro.sim.failures import FaultPlan
from repro.sim.process import Timeout
from repro.sim.rng import SeededRng
from repro.storage.uid import Uid
from repro.workload.audit import LockQuiescenceAudit
from repro.workload.generator import (
    StreamOutcome,
    TransactionStream,
    WorkloadReport,
    invoke,
    run_streams,
)
from repro.workload.sweep import percentile


class Counter(PersistentObject):
    """The workload object: an integer with ``get`` and ``add``."""

    TYPE_NAME = "sweep.Counter"

    def __init__(self, uid, value=0):
        super().__init__(uid)
        self.value = value

    def save_state(self, out):
        out.pack_int(self.value)

    def restore_state(self, state):
        self.value = state.unpack_int()

    @operation(LockMode.READ)
    def get(self):
        return self.value

    @operation(LockMode.WRITE)
    def add(self, amount):
        self.value += amount
        return self.value

    @classmethod
    def named(cls, type_name: str) -> type["Counter"]:
        """This class under another wire name.

        The type name travels in every state buffer and RPC, so it
        feeds the rows' byte counters; scenarios keep the name they
        were first recorded under.
        """
        if type_name == cls.TYPE_NAME:
            return cls
        return type(cls.__name__, (cls,), {"TYPE_NAME": type_name})


@dataclass(frozen=True)
class Shape:
    """Who runs where: hosts, clients, objects and their placement.

    With ``store_hosts=None`` every server host ``s{i}`` also stores;
    otherwise ``Sv`` lives on ``sv{i}`` and ``St`` on ``st{i}``.
    Object ``i`` is homed on ``copies`` consecutive hosts starting at
    host ``i`` (round-robin).  The two service times charge only the
    name-serving hosts / only the store hosts, making that role the
    run's single-server queueing bottleneck.  ``policies`` maps a
    client's name to the factory of its replication policy (a client
    not named is single-copy passive).
    """

    server_hosts: int
    clients: Sequence[str]
    objects: int
    store_hosts: int | None = None
    sv_copies: int = 1
    st_copies: int = 1
    type_name: str = Counter.TYPE_NAME
    shard_service_time: float | None = None
    store_service_time: float | None = None
    policies: Mapping[str, Callable[[], Any]] = field(default_factory=dict)


def clients(count: int, *extra: str) -> list[str]:
    """``c0..c{count-1}`` plus any specially named clients."""
    return [f"c{i}" for i in range(count)] + list(extra)


#: Short parameter names for the ``SystemConfig`` fields most scenarios set.
ALIASES = {"shards": "nameserver_shards",
           "replication": "nameserver_replication",
           "scheme": "binding_scheme", "lease": "nameserver_lease"}
_SETTINGS = {f.name for f in fields(SystemConfig)}


@dataclass(frozen=True)
class Scenario:
    """One canned experiment, declared.

    ``params`` names every parameter with its default; ``tiny`` lists
    the override sets of the seconds-long smoke cases.  A parameter
    named like a ``SystemConfig`` field (or one of :data:`ALIASES`)
    sets that field; ``config(p)`` adds the settings that are fixed or
    derived.  The other hooks take the bound parameters ``p`` (shape,
    auditors) or the live :class:`Run` (everything after boot).
    ``modes`` maps a value of the ``mode`` parameter to the scenario
    that runs it instead.
    """

    name: str
    doc: str
    params: dict[str, Any]
    tiny: tuple[dict[str, Any], ...]
    shape: Callable[[Any], Shape]
    counters: Callable[["Run"], dict[str, Any]]
    clean: Callable[[dict[str, Any]], list[str]]
    config: Callable[[Any], dict[str, Any]] = lambda p: {}
    streams: Callable[["Run"], list[TransactionStream]] = lambda run: []
    script: Callable[["Run"], None] = lambda run: None
    load: Callable[["Run"], None] = lambda run: run.run_streams()
    ledger: Callable[["Run"], dict[Uid, int]] = lambda run: run.stream_ledger()
    auditors: Callable[[Any], Sequence[Any]] = lambda p: ()
    modes: dict[str, "Scenario"] = field(default_factory=dict)

    def bind(self, overrides: dict[str, Any]) -> SimpleNamespace:
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise TypeError(f"{self.name}: unknown parameter(s) "
                            f"{sorted(unknown)} (has: {sorted(self.params)})")
        return SimpleNamespace(**{**self.params, **overrides})


class Run:
    """One execution of a scenario: the booted system plus bookkeeping."""

    def __init__(self, scenario: Scenario, p: SimpleNamespace) -> None:
        self.scenario, self.p = scenario, p
        shape = scenario.shape(p)
        settings = {ALIASES.get(name, name): value
                    for name, value in vars(p).items()
                    if ALIASES.get(name, name) in _SETTINGS}
        self.system = system = DistributedSystem(SystemConfig(**{
            "enable_recovery_managers": False, **settings,
            **scenario.config(p)}))
        counter = Counter.named(shape.type_name)
        system.registry.register(counter)
        if shape.store_hosts is None:
            self.sv_hosts = self.st_hosts = [
                f"s{i}" for i in range(shape.server_hosts)]
            for host in self.sv_hosts:
                system.add_node(host, server=True, store=True)
        else:
            self.sv_hosts = [f"sv{i}" for i in range(shape.server_hosts)]
            self.st_hosts = [f"st{i}" for i in range(shape.store_hosts)]
            for host in self.sv_hosts:
                system.add_node(host, server=True, store=False)
            for host in self.st_hosts:
                system.add_node(host, server=False, store=True)
        self.clients = {
            name: system.add_client(
                name, policy=shape.policies.get(name, lambda: None)())
            for name in shape.clients}
        self.runtimes = list(self.clients.values())

        def homes(hosts: list[str], first: int, copies: int) -> list[str]:
            return [hosts[(first + r) % len(hosts)]
                    for r in range(max(1, min(copies, len(hosts))))]

        self.uids = [
            system.create_object(
                counter(system.new_uid(), value=0),
                sv_hosts=homes(self.sv_hosts, i, shape.sv_copies),
                st_hosts=homes(self.st_hosts, i, shape.st_copies))
            for i in range(shape.objects)]
        if shape.shard_service_time is not None:
            for host in system.shard_hosts:
                system.nodes[host].rpc.service_time = shape.shard_service_time
        if shape.store_service_time is not None:
            for host in self.st_hosts:
                system.nodes[host].rpc.service_time = shape.store_service_time
        self.streams = scenario.streams(self)
        self.report = WorkloadReport()
        self.drivers: list[Any] = []
        self.migrations: list[dict[str, Any]] = []
        self.quiet_after = 0.0
        self.settle: float | None = None

    # -- what a script may do ---------------------------------------------

    def install(self, plan: FaultPlan, settle: float | None = None) -> None:
        """Arm a fault plan; settle that long past its last event."""
        self.system.install_fault_plan(plan)
        self.quiet_after = max(event.time for event in plan.events)
        self.settle = settle

    def reshard_after(self, delay: float,
                      step: Callable[[], Iterable[Any]], name: str) -> None:
        """Drive live migrations: after ``delay``, run each process
        ``step()`` yields to completion, recording its outcome.  The
        runner waits for the driver once the load is done."""
        def driver():
            yield Timeout(delay)
            for migration in step():
                self.migrations.append((yield migration))

        self.drivers.append(self.system.scheduler.spawn(driver(), name=name))

    # -- the default load and its ledger ----------------------------------

    def run_streams(self) -> None:
        self.report = run_streams(self.system, self.streams,
                                  timeout=100_000.0)

    def stream_ledger(self) -> dict[Uid, int]:
        """Committed transactions per counter, for closed-loop writers."""
        ledger = {uid: 0 for uid in self.uids}
        for i, stream in enumerate(self.streams):
            ledger[self.uids[i % len(self.uids)]] += stream.report.committed
        return ledger


def closed_loop(run: Run, txns: int, per_client: int = 1,
                read_only: bool = False,
                body: Callable[[Uid], Any] | None = None
                ) -> list[TransactionStream]:
    """``per_client`` simultaneous streams on every client.

    Stream ``i`` loops ``txns`` transactions (``add(1)``, or ``get``
    when ``read_only``, or ``body(uid)``) on counter ``i mod objects``:
    one private counter per stream means no entry or lock contention,
    fewer counters than streams makes hot objects.
    """
    p, op = run.p, (("get",) if read_only else ("add", 1))
    body = body or (lambda uid: invoke(uid, *op))
    return [
        TransactionStream(run.runtimes[i // per_client],
                          lambda _index, uid=run.uids[i % len(run.uids)]:
                              body(uid),
                          count=txns, rng=SeededRng(p.seed, f"stream{i}"),
                          mean_think_time=p.mean_think_time,
                          max_attempts=p.max_attempts, read_only=read_only)
        for i in range(len(run.runtimes) * per_client)]


def execute(scenario: Scenario, **overrides: Any) -> dict[str, Any]:
    """Run ``scenario`` once with ``overrides``; return its row."""
    mode = overrides.get("mode", scenario.params.get("mode"))
    if mode != scenario.params.get("mode"):
        if mode not in scenario.modes:
            raise ValueError(f"unknown {scenario.name} mode: {mode!r}")
        scenario = scenario.modes[mode]
    run = Run(scenario, scenario.bind(overrides))
    system = run.system
    scenario.script(run)
    run.started = system.scheduler.now
    scenario.load(run)
    run.ended = system.scheduler.now
    for driver in run.drivers:
        system.run_until(driver, timeout=300.0)
    if run.settle is not None:
        system.run(until=max(system.scheduler.now, run.quiet_after)
                   + run.settle)
    # Audit reads are traffic too: rows that meter the load alone read
    # this snapshot, taken before the auditors run.
    run.settled_metrics = system.metrics.snapshot()
    row: dict[str, Any] = {}
    for auditor in scenario.auditors(run.p):
        row.update(auditor.audit(run))
    row.update(scenario.counters(run))
    # Last: it runs the clock on, past several janitor rounds.
    row.update(LockQuiescenceAudit().audit(run))
    # A daemon that died fails the run, naming every one.
    deaths = system.process_deaths
    if deaths:
        raise RuntimeError(f"{scenario.name}: node processes died: "
                           + "; ".join(f"{name}: {error!r}"
                                       for name, error in deaths))
    return row


# -- row summaries -----------------------------------------------------

def load_summary(report: WorkloadReport) -> dict[str, Any]:
    return {"offered": report.offered, "committed": report.committed,
            "commit_rate": report.commit_rate}


def latency_summary(outcomes: Sequence[StreamOutcome]) -> dict[str, float]:
    latencies = [o.latency for o in outcomes]
    return {f"p{q}_latency": percentile(latencies, q / 100)
            for q in (50, 95, 99)}


def last_finish(report: WorkloadReport, default: float) -> float:
    return max((o.finished_at for o in report.outcomes), default=default)


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def cache_summary(system: DistributedSystem) -> dict[str, Any]:
    caches = system.entry_caches.values()
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    return {"cache_hits": hits, "cache_misses": misses,
            "hit_rate": rate(hits, hits + misses)}


def counter_sum(snapshot: dict[str, Any], suffix: str) -> int:
    """Sum of every (scoped) integer counter whose name ends ``suffix``."""
    return sum(value for name, value in snapshot.items()
               if name.endswith(suffix) and isinstance(value, int))


def shard_reads(run: Run, hosts: Iterable[str]) -> dict[str, int]:
    """``GetServer`` reads per name node during the load (the settled
    snapshot: an auditor's reads are not the load's)."""
    return {name: run.settled_metrics.get(
        f"shard.{name}.server_db.get_server", 0) for name in hosts}


def busy_skew(run: Run) -> float:
    """The busiest name node's busy time over the mean name node's.

    A host's busy time is the client-plane messages it took in times
    its per-request service time -- the single-server queue's charge,
    read off counters every run keeps, so it is exact and needs no
    per-request bookkeeping.  1.0 is a perfectly even ring (or one
    whose name nodes charge nothing).
    """
    system = run.system
    busy = [run.settled_metrics.get(f"traffic.{host}.client.rpcs_in", 0)
            * system.nodes[host].rpc.service_time
            for host in system.shard_hosts]
    mean = sum(busy) / len(busy)
    return max(busy) / mean if mean > 0 else 1.0


def expecting(**expected: Any) -> Callable[[dict[str, Any]], list[str]]:
    """A ``clean(row)`` predicate from per-field expectations.

    A plain value must equal ``row[field]``; a callable is asked
    ``check(row)`` and the keyword names what it is about.  The result
    lists every violated expectation by name -- empty means clean.
    """
    def clean(row: dict[str, Any]) -> list[str]:
        bad = []
        for name, want in expected.items():
            ok = want(row) if callable(want) else row[name] == want
            if not ok:
                detail = "violated" if callable(want) else f"expected {want!r}"
                bad.append(f"{name} = {row.get(name)!r} ({detail})")
        return bad
    return clean
