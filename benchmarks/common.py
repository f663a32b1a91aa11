"""What every benchmark module shares: :func:`once` and its registries.

A benchmark runs scenarios from :mod:`repro.workload.scenarios` on the
one runner (``boot -> script -> load -> settle -> auditors ->
counters``), prints a table, and asserts the experiment's shape claims;
nothing here builds a deployment or drives a stream.  The "Benchmarks"
table in docs/architecture.md is the experiment index,
``benchmarks/gated_benches.txt`` lists every module (all are gated),
and benchmarks/results/ holds their baselines.  Run one with::

    PYTHONPATH=src python -m pytest benchmarks/bench_<name>.py -s

Every experiment driven through :func:`once` is also recorded
machine-readably: at session end ``benchmarks/conftest.py`` writes one
``benchmarks/results/BENCH_<name>.json`` per bench module (rows,
throughput, latency percentiles, correctness ledgers -- whatever the
experiment returned), so CI can archive the perf trajectory instead of
letting it evaporate into stdout tables.
"""

from __future__ import annotations

import time
from pathlib import PurePath
from typing import Any

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


def json_safe(value: Any) -> Any:
    """``value`` with every dict key JSON can not carry made a string
    (a ``(3, 3)`` key becomes ``"3x3"``): one experiment returning a
    tuple-keyed matrix must not abort the session hook and take every
    later module's ``BENCH_*.json`` with it."""
    if isinstance(value, dict):
        return {_json_key(key): json_safe(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def _json_key(key: Any) -> Any:
    if key is None or isinstance(key, (str, int, float, bool)):
        return key
    return "x".join(map(str, key)) if isinstance(key, tuple) else str(key)


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiment's return value (a row, a list of rows, a tuple of
    headline numbers) is recorded for the machine-readable
    ``BENCH_<name>.json`` artifact alongside the printed table, along
    with the experiment's real wall-clock duration.
    """
    started = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    fullname = getattr(benchmark, "fullname", "") or ""
    module = PurePath(fullname.split("::", 1)[0]).stem or "unknown"
    test = getattr(benchmark, "name", None) or "experiment"
    BENCH_RESULTS.setdefault(module, {})[test] = json_safe(result)
    BENCH_WALL_CLOCK.setdefault(module, {})[test] = elapsed
    return result
