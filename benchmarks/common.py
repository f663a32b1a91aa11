"""Shared machinery for the benchmark harness.

Every benchmark regenerates one paper artefact (figure or analysed
trade-off) as a printed table plus shape assertions; the "Benchmarks"
table in docs/architecture.md is the experiment index and
benchmarks/results/ holds the recorded results.  Run one with::

    PYTHONPATH=src python -m pytest benchmarks/bench_<name>.py -s

Every experiment driven through :func:`once` is also recorded
machine-readably: at session end ``benchmarks/conftest.py`` writes one
``benchmarks/results/BENCH_<name>.json`` per bench module (rows,
throughput, latency percentiles, correctness ledgers -- whatever the
experiment returned), so CI can archive the perf trajectory instead of
letting it evaporate into stdout tables.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Any

from repro import DistributedSystem, SingleCopyPassive, SystemConfig
from repro.sim.rng import SeededRng
from repro.workload import TransactionStream, WorkloadReport, run_streams
from repro.workload.scenario import Counter


# The figure benches' workload object: the scenarios' counter under
# the wire name these benches were recorded with.
BenchCounter = Counter.named("bench.Counter")


def build_system(sv, st, policy=None, clients=1, seed=7, **config_kwargs):
    """A deployment with one BenchCounter object and N clients."""
    system = DistributedSystem(SystemConfig(seed=seed, **config_kwargs))
    system.registry.register(BenchCounter)
    for host in dict.fromkeys(list(sv) + list(st)):
        system.add_node(host, server=host in sv, store=host in st)
    runtimes = [
        system.add_client(f"c{i}", policy=(policy() if policy else
                                           SingleCopyPassive()))
        for i in range(clients)
    ]
    uid = system.create_object(BenchCounter(system.new_uid(), value=0),
                               sv_hosts=list(sv), st_hosts=list(st))
    return system, runtimes, uid


def increment_factory(uid):
    def factory(_index):
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        return work
    return factory


def read_factory(uid):
    def factory(_index):
        def work(txn):
            return (yield from txn.invoke(uid, "get"))
        return work
    return factory


def run_workload(system, runtimes, uid, txns_per_client=50,
                 mean_think_time=0.5, max_attempts=1, read_only=False,
                 factory=None, seed=99) -> WorkloadReport:
    factory = factory or increment_factory(uid)
    streams = [
        TransactionStream(runtime, factory, count=txns_per_client,
                          rng=SeededRng(seed, f"stream{i}"),
                          mean_think_time=mean_think_time,
                          max_attempts=max_attempts, read_only=read_only)
        for i, runtime in enumerate(runtimes)
    ]
    return run_streams(system, streams)


# One entry per bench module that ran this session:
# ``{module_stem: {test_name: result}}``.  Drained by
# benchmarks/conftest.py into BENCH_<name>.json files at session end.
BENCH_RESULTS: dict[str, dict[str, Any]] = {}

# Real (host) seconds each experiment took, ``{module: {test: secs}}``.
# Written into every BENCH_<name>.json so the regression gate can hold
# an absolute wall-clock budget: a bench that silently grows from
# seconds to minutes is a regression even if its simulated numbers are
# unchanged.
BENCH_WALL_CLOCK: dict[str, dict[str, float]] = {}


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiment's return value (a row, a list of rows, a tuple of
    headline numbers) is recorded for the machine-readable
    ``BENCH_<name>.json`` artifact alongside the printed table, along
    with the experiment's real wall-clock duration.
    """
    import time

    started = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    fullname = getattr(benchmark, "fullname", "") or ""
    module = PurePath(fullname.split("::", 1)[0]).stem or "unknown"
    test = getattr(benchmark, "name", None) or "experiment"
    BENCH_RESULTS.setdefault(module, {})[test] = result
    BENCH_WALL_CLOCK.setdefault(module, {})[test] = elapsed
    return result
