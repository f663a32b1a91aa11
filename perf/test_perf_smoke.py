"""Smoke checks for the benchmark itself (collected by the tier-1 run).

They run every workload at 1/20 size, so they check that the benchmark
still measures a correct program -- not how fast it is.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path

import pytest

from perf import compare, micro, run, trace
from perf.driver import execute
from perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = run.definitions()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_commits_with_a_clean_ledger(name):
    result = execute(WORKLOADS[name].build, 7, run.WARMUP_SCALE)
    assert result.offered > 0
    assert result.committed == result.offered
    assert result.audit and result.ledger_violations == 0, result.audit


def test_same_seed_gives_same_fingerprint_and_another_seed_does_not():
    build = WORKLOADS["commit_write"].build
    first, again, other = (execute(build, seed, run.WARMUP_SCALE, check=False)
                           for seed in (7, 7, 8))
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint


def test_every_source_file_belongs_to_exactly_one_layer():
    files = sorted(trace.REPRO.rglob("*.py"))
    assert len(files) > 50
    for path in files:
        assert trace.layer_of(str(path)) in trace.LAYERS, path
    assert trace.layer_of(str(trace.REPRO / "sim" / "metrics.py")) == "metering"
    assert trace.layer_of(str(trace.REPRO / "sim" / "events.py")) == "sim"
    assert trace.layer_of(run.__file__) == "workload"
    assert trace.layer_of(re.__file__) is None


def test_computed_metrics_are_exactly_those_of_benchmark_json():
    names = [metric["name"] for kind in ("end_to_end", "per_layer")
             for metric in SPEC[kind]]
    names += [workload["name"] for workload in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in names
    assert all(Path(path).parts[0] == "perf" for path in SPEC["paths"])

    build = WORKLOADS["commit_write"].build
    plain = execute(build, 7, run.WARMUP_SCALE)
    traced, attribution = trace.profiled(
        lambda profiler: execute(build, 7, run.WARMUP_SCALE,
                                 profiler=profiler, check=False))
    assert traced.fingerprint == plain.fingerprint
    assert sum(attribution["self_share"].values()) == pytest.approx(1.0)
    assert attribution["calls"]["ObjectServer.commit"] > 0
    # contract_metrics raises if code and BENCHMARK.json name different sets.
    layered = run.per_layer(plain, traced, attribution,
                            dict.fromkeys(micro.MICROS, 1.0))
    assert run.contract_metrics({"per_layer": layered}, SPEC)
    whole = run.end_to_end([plain], import_cpu_s=0.1)
    assert all(entry["value"] > 0 for entry in whole.values())
    assert run.contract_metrics({"end_to_end": whole}, SPEC)


def _results(host_commits_per_s: float) -> dict:
    def entry(value: float) -> dict:
        return {"value": value, "q1": value * 0.99, "q3": value * 1.01}
    values = {metric["name"]: entry(100.0) for metric in SPEC["end_to_end"]}
    values["host_commits_per_s"] = entry(host_commits_per_s)
    return {"workloads": {"commit_write": {
        "end_to_end": values, "sim_fingerprint": "abc", "attempted": 10,
        "failed": 0, "correct": True, "per_layer": {"net.msgs_dropped": 0}}}}


def test_compare_passes_identical_inputs_and_flags_a_drop():
    bound = next(metric["bound"] for metric in SPEC["end_to_end"]
                 if metric["name"] == "host_commits_per_s")
    base = _results(1000.0)
    rows, ok = compare.compare(base, copy.deepcopy(base), SPEC)
    assert ok and {row[5] for row in rows} == {"same"}

    rows, ok = compare.compare(base, _results(1000.0 * (1 - 1.5 * bound)), SPEC)
    assert not ok
    assert [row[5] for row in rows if row[1] == "host_commits_per_s"] == ["worse"]

    rows, ok = compare.compare(base, _results(1000.0 * (1 + 1.5 * bound)), SPEC)
    assert ok
    assert [row[5] for row in rows if row[1] == "host_commits_per_s"] == ["better"]

    noisy = _results(1000.0)
    spread = noisy["workloads"]["commit_write"]["end_to_end"]["host_commits_per_s"]
    spread["q1"], spread["q3"] = 1000.0 * (1 - bound), 1000.0 * (1 + bound)
    rows, ok = compare.compare(base, noisy, SPEC)
    assert ok
    assert [row[5] for row in rows if row[1] == "host_commits_per_s"] == ["unresolved"]

    failing = _results(1000.0)
    failing["workloads"]["commit_write"]["failed"] = 1
    assert not compare.compare(base, failing, SPEC)[1]
