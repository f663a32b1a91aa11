"""The benchmark harness: what is recorded, what is gated, what is reached."""

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

from benchmarks import check_regression, common, conftest
from repro.cluster.system import SystemConfig
from repro.workload.scenario import ALIASES
from repro.workload.scenarios import SCENARIOS

BENCHMARKS = Path(common.__file__).parent


# What :func:`benchmarks.common.once` uses of pytest-benchmark.
_BENCHMARK = SimpleNamespace(
    fullname="benchmarks/bench_matrix.py::test_matrix", name="test_matrix",
    pedantic=lambda fn, rounds, iterations: fn())


def test_a_tuple_keyed_result_cannot_abort_the_session_hook(
        tmp_path, monkeypatch):
    monkeypatch.setattr(common, "BENCH_RESULTS", {})
    monkeypatch.setattr(common, "BENCH_WALL_CLOCK", {})
    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
    matrix = {(3, 3): 0.85, (1, 1): 0.75}
    assert common.once(_BENCHMARK, lambda: [{"cells": matrix}]) == [
        {"cells": matrix}]
    conftest.pytest_sessionfinish(session=None, exitstatus=0)
    written = json.loads((tmp_path / "BENCH_matrix.json").read_text())
    assert written["results"]["test_matrix"] == [
        {"cells": {"3x3": 0.85, "1x1": 0.75}}]


def test_every_bench_module_is_gated():
    gated = set((BENCHMARKS / "gated_benches.txt").read_text().split())
    assert gated == {f"benchmarks/{path.name}"
                     for path in BENCHMARKS.glob("bench_*.py")}


def test_every_scenario_is_reached_by_a_gated_bench():
    # A scenario nothing benches has no baseline: bench it or delete it.
    sources = "".join(path.read_text()
                      for path in BENCHMARKS.glob("bench_*.py"))
    assert set(SCENARIOS) <= set(re.findall(r'"(\w+)"', sources))


def _results(tmp_path, name, commit_rate, p99, rpcs_sent=1000, p95=0.5):
    directory = tmp_path / name
    directory.mkdir()
    (directory / "BENCH_paper_figures.json").write_text(json.dumps({
        "results": {"test_paper_experiment[fig3]": {
            "2": {"commit_rate": commit_rate, "p99_latency": p99,
                  "p95_latency": p95, "rpcs_sent": rpcs_sent}}}}))
    return directory


def test_commit_rate_is_gated_and_latency_is_not(tmp_path, capsys):
    """Below the tail, that is: mean / p50 / p95 are too discrete."""
    baseline = _results(tmp_path, "baseline", commit_rate=0.96, p99=1.0)
    slower = _results(tmp_path, "slower", commit_rate=0.96, p99=1.0, p95=4.5)
    dropped = _results(tmp_path, "dropped", commit_rate=0.72, p99=1.0)
    assert check_regression.compare(baseline, slower, 0.20) == []
    [failure] = check_regression.compare(baseline, dropped, 0.20)
    assert "fig3].2.commit_rate: 0.720 <" in failure


def test_a_rise_in_p99_latency_fails_past_its_own_tolerance(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, p99=1.0)
    within = _results(tmp_path, "within", 0.96, p99=1.5)  # > 20%, <= 50%
    timeout = _results(tmp_path, "timeout", 0.96, p99=5.2)
    assert check_regression.compare(baseline, within, 0.20) == []
    [failure] = check_regression.compare(baseline, timeout, 0.20)
    assert "fig3].2.p99_latency: 5.200 > 1.500 (50% above" in failure


def test_a_fall_in_p99_latency_passes_however_large(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, p99=5.2)
    tenth = _results(tmp_path, "tenth", 0.96, p99=0.5)
    assert check_regression.compare(baseline, tenth, 0.20) == []


def test_a_rise_in_rpcs_sent_fails_the_gate(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, rpcs_sent=1000)
    within = _results(tmp_path, "within", 0.96, 1.0, rpcs_sent=1200)
    more = _results(tmp_path, "more", 0.96, 1.0, rpcs_sent=1250)
    assert check_regression.compare(baseline, within, 0.20) == []
    [failure] = check_regression.compare(baseline, more, 0.20)
    assert "fig3].2.rpcs_sent: 1250.000 > 1200.000" in failure


def test_a_fall_in_rpcs_sent_passes_however_large(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, rpcs_sent=1000)
    tenth = _results(tmp_path, "tenth", 0.96, 1.0, rpcs_sent=100)
    assert check_regression.compare(baseline, tenth, 0.20) == []


def test_moved_lists_only_the_rows_that_changed_rises_included(
        tmp_path, capsys):
    baseline = _results(tmp_path, "baseline", commit_rate=0.80, p99=1.0)
    same = _results(tmp_path, "same", commit_rate=0.80, p99=1.0, p95=2.0)
    risen = _results(tmp_path, "risen", commit_rate=0.90, p99=1.0)
    assert check_regression.compare(baseline, same, 0.20, moved_only=True) == []
    assert capsys.readouterr().out == ""
    assert check_regression.compare(baseline, risen, 0.20, moved_only=True) == []
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("ok") and "fig3].2.commit_rate" in line
    assert line.endswith("0.800 -> 0.900 (+12.5%)")


# ``ShadowResolver`` is recovery code (cooperative termination of
# orphaned shadows), not an optional plane: whether it becomes default-on
# or gets a ``paper_*`` row belongs to ROADMAP item 1's coordinator-crash
# bugs, so it is the one field allowed to have no row.
_FIELDS_WITHOUT_A_ROW = {"enable_shadow_resolvers"}


def test_every_config_field_is_set_by_a_scenario():
    # A knob nothing sets has no row: give it one or delete it.
    reached = set()
    for declared in SCENARIOS.values():
        for scenario in (declared, *declared.modes.values()):
            for case in ({}, *scenario.tiny):
                mode = case.get("mode", scenario.params.get("mode"))
                target = (scenario if mode == scenario.params.get("mode")
                          else scenario.modes[mode])
                p = target.bind(case)
                reached |= {ALIASES.get(name, name) for name in vars(p)}
                reached |= set(target.config(p))
    unset = {f.name for f in dataclasses.fields(SystemConfig)} - reached
    assert unset == _FIELDS_WITHOUT_A_ROW, (
        f"no scenario sets {sorted(unset - _FIELDS_WITHOUT_A_ROW)}")
