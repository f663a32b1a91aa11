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


def _results(tmp_path, name, commit_rate, p99, rpcs_sent=1000, p95=0.5,
             **fields):
    directory = tmp_path / name
    directory.mkdir()
    (directory / "BENCH_paper_figures.json").write_text(json.dumps({
        "results": {"test_paper_experiment[fig3]": {
            "2": {"commit_rate": commit_rate, "p99_latency": p99,
                  "p95_latency": p95, "rpcs_sent": rpcs_sent, **fields}}}}))
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


def test_a_rise_in_busy_skew_fails_the_gate(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, busy_skew=1.0)
    within = _results(tmp_path, "within", 0.96, 1.0, busy_skew=1.2)
    skewed = _results(tmp_path, "skewed", 0.96, 1.0, busy_skew=1.62)
    assert check_regression.compare(baseline, within, 0.20) == []
    [failure] = check_regression.compare(baseline, skewed, 0.20)
    assert "fig3].2.busy_skew: 1.620 > 1.200" in failure


def test_a_fall_in_busy_skew_passes_however_large(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, busy_skew=2.33)
    level = _results(tmp_path, "level", 0.96, 1.0, busy_skew=1.0)
    assert check_regression.compare(baseline, level, 0.20) == []


def test_a_later_done_at_fails_past_its_own_tolerance(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, resync_done_at=8.0)
    within = _results(tmp_path, "within", 0.96, 1.0, resync_done_at=12.0)
    chasing = _results(tmp_path, "chasing", 0.96, 1.0, resync_done_at=22.5)
    assert check_regression.compare(baseline, within, 0.20) == []
    [failure] = check_regression.compare(baseline, chasing, 0.20)
    assert "fig3].2.resync_done_at: 22.500 > 12.000 (50% above" in failure


def test_an_earlier_done_at_passes_however_large(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0,
                        migration_done_at=25.6)
    sooner = _results(tmp_path, "sooner", 0.96, 1.0, migration_done_at=8.2)
    assert check_regression.compare(baseline, sooner, 0.20) == []


def test_a_ledger_rising_from_zero_fails_the_gate(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, lost_bindings=0,
                        stale_ring_retries=0)
    # A count that is not a ledger may rise; one lost binding may not.
    lost = _results(tmp_path, "lost", 0.96, 1.0, lost_bindings=1,
                    stale_ring_retries=40)
    [failure] = check_regression.compare(baseline, lost, 0.20)
    assert "fig3].2.lost_bindings: 1.000 > 0.000 (0% above" in failure


def test_a_ledger_falling_to_zero_passes(tmp_path):
    baseline = _results(tmp_path, "baseline", 0.96, 1.0, lost_bindings=1,
                        replica_disagreements=0)
    fixed = _results(tmp_path, "fixed", 0.96, 1.0, lost_bindings=0,
                     replica_disagreements=0)
    assert check_regression.compare(baseline, fixed, 0.20) == []


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


def test_moved_says_which_results_blocks_are_identical(tmp_path):
    baseline = _results(tmp_path, "baseline", commit_rate=0.80, p99=1.0)
    current = _results(tmp_path, "current", commit_rate=0.80, p99=1.0)
    (baseline / "BENCH_hot_key.json").write_text(
        json.dumps({"results": {"row": 1}, "wall_clock_seconds": {"a": 1}}))
    (current / "BENCH_hot_key.json").write_text(
        json.dumps({"results": {"row": 2}, "wall_clock_seconds": {"a": 9}}))
    (baseline / "BENCH_skipped.json").write_text(json.dumps({"results": {}}))
    (current / "BENCH_paper_figures.json").write_text(json.dumps(
        {**json.loads((current / "BENCH_paper_figures.json").read_text()),
         "wall_clock_seconds": {"fig3": 7.0}}))  # timings are not results
    assert check_regression.identical_results(baseline, current) == [
        "differs   BENCH_hot_key.json: results block",
        "identical BENCH_paper_figures.json: results block",
        "1 / 2 identical"]


# ``ShadowResolver`` is recovery code (cooperative termination of
# orphaned shadows), not an optional plane: whether it becomes default-on
# or gets a ``paper_*`` row belongs to the coordinator-crash bugs of the
# ROADMAP item "Finish the paper-core recovery bugs", so it is the one
# field allowed to have no row.
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
