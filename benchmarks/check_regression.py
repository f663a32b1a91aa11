"""The CI perf gate: fail on smoke-bench throughput regressions.

``benchmarks/results/BENCH_*.json`` files are checked into the repo as
the perf baseline (regenerated whenever a PR legitimately moves the
numbers).  CI copies the checked-in baseline aside, re-runs the smoke
benches (which rewrite ``benchmarks/results/``), then runs::

    python -m benchmarks.check_regression \
        --baseline /tmp/bench-baseline --current benchmarks/results

Every numeric value whose leaf key contains one of ``GATED_KEYS`` is
compared pathwise, in the key's own direction: ``throughput`` and
``commit_rate`` fail more than ``--tolerance`` (default 20%) *below*
their baseline, ``rpcs_sent`` -- an exact count of messages, so the
ratio is not at the mercy of a discrete sample -- more than that
*above* it.  ``p99_latency`` is gated lower-is-better with a tolerance
of its own (50%): at smoke sizes a tail is a handful of samples, so one
of them changing rank moves it by tens of percent, while what the gate
is there to catch -- a timeout landing on a row, a queue that no longer
drains -- multiplies it.  Benches present on only one side are skipped
(a brand-new bench gains its baseline the commit it lands), as are
baseline values of zero.  The other latency keys (mean, p50, p95) are
deliberately *not* gated: too discrete at these sizes for a ratio gate,
and the throughput floor already catches a queueing collapse.

``--moved`` prints, instead of one verdict line per gated value, only
the values that differ from their baseline (``baseline -> current``,
rises included): what a reviewer of a PR that shifts rows needs to see.

Separately from the ratio gate, every re-run bench module's recorded
``wall_clock_seconds`` total is held to an absolute budget
(``--wall-budget``, default 150s): real runtime quietly ballooning is
a regression even when the simulated numbers are unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Substrings of a flattened JSON path's leaf key that mark a gated
# metric, with the direction in which it gets better (+1 higher, -1
# lower) and the fraction it may move the other way; ``None`` is the
# ``--tolerance`` argument.
GATED_KEYS: dict[str, tuple[int, float | None]] = {
    "throughput": (+1, None), "commit_rate": (+1, None),
    "rpcs_sent": (-1, None), "p99_latency": (-1, 0.50)}


def flatten(value: object, path: str = "") -> dict[str, float]:
    """Every numeric leaf of a JSON document, keyed by dotted path."""
    out: dict[str, float] = {}
    if isinstance(value, bool):
        return out
    if isinstance(value, (int, float)):
        out[path] = float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            out.update(flatten(item, f"{path}.{key}" if path else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(flatten(item, f"{path}[{index}]"))
    return out


def gated(path: str) -> tuple[int, float | None]:
    """``(direction, own tolerance)`` of a gated ``path``; direction 0
    means not gated."""
    # Only the leaf key decides: a *test name* containing "throughput"
    # must not drag its unrelated row fields into the gate.  Wall-clock
    # entries are keyed by test name too -- they get their own absolute
    # budget below, never the ratio gate.
    if path.startswith("wall_clock_seconds"):
        return 0, None
    leaf = path.rsplit(".", 1)[-1].lower()
    return next((rule for key, rule in GATED_KEYS.items() if key in leaf),
                (0, None))


def compare(baseline_dir: Path, current_dir: Path,
            tolerance: float, moved_only: bool = False) -> list[str]:
    failures: list[str] = []
    compared = 0
    for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            print(f"skip {baseline_path.name}: not re-run in this job")
            continue
        baseline = flatten(json.loads(baseline_path.read_text()))
        current = flatten(json.loads(current_path.read_text()))
        for path, base_value in sorted(baseline.items()):
            better, own_tolerance = gated(path)
            if not better or base_value <= 0:
                continue
            allowed = tolerance if own_tolerance is None else own_tolerance
            now = current.get(path)
            if now is None:
                print(f"skip {baseline_path.name}:{path}: "
                      f"gone from current results")
                continue
            compared += 1
            # A floor for a higher-is-better value, a ceiling otherwise.
            limit = base_value * (1.0 - better * allowed)
            regressed = (now - limit) * better < 0
            verdict = "REGRESSED" if regressed else "ok"
            bound, side, sign = (("floor", "below", "<") if better > 0
                                 else ("ceiling", "above", ">"))
            if not moved_only:
                print(f"{verdict:9s} {baseline_path.name}:{path}: "
                      f"{now:.3f} vs baseline {base_value:.3f} "
                      f"({bound} {limit:.3f})")
            elif now != base_value:
                print(f"{verdict:9s} {baseline_path.name}:{path}: "
                      f"{base_value:.3f} -> {now:.3f} "
                      f"({now / base_value - 1.0:+.1%})")
            if regressed:
                failures.append(
                    f"{baseline_path.name}:{path}: {now:.3f} {sign} "
                    f"{limit:.3f} ({allowed:.0%} {side} {base_value:.3f})")
    if compared == 0:
        failures.append("no gated metrics compared -- baseline or current "
                        "results missing entirely")
    return failures


def check_wall_budget(current_dir: Path, budget: float) -> list[str]:
    """Hold every re-run bench module to an absolute wall-clock budget.

    The ratio gate compares *simulated* numbers; this row catches the
    other failure mode -- a bench whose real runtime quietly balloons
    (an accidental event-loop blowup, an unbounded retry) even though
    its simulated metrics still look fine.  Only the freshly-generated
    results are consulted: the budget is absolute, not relative.
    """
    failures: list[str] = []
    for current_path in sorted(current_dir.glob("BENCH_*.json")):
        recorded = json.loads(current_path.read_text()).get(
            "wall_clock_seconds")
        if not recorded:
            continue  # an older artifact without the instrumentation
        total = sum(float(value) for value in recorded.values())
        verdict = "ok" if total <= budget else "OVER BUDGET"
        print(f"{verdict:9s} {current_path.name}: wall clock "
              f"{total:.1f}s of {budget:.0f}s budget")
        if total > budget:
            failures.append(
                f"{current_path.name}: wall clock {total:.1f}s exceeds "
                f"the {budget:.0f}s budget")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory of checked-in BENCH_*.json files")
    parser.add_argument("--current", type=Path, required=True,
                        help="directory of freshly-generated BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional move the wrong way (0.20)")
    parser.add_argument("--wall-budget", type=float, default=150.0,
                        help="absolute per-bench wall-clock cap in real "
                             "seconds (150)")
    parser.add_argument("--moved", action="store_true",
                        help="list only the gated values that changed")
    args = parser.parse_args(argv)
    failures = compare(args.baseline, args.current, args.tolerance,
                       moved_only=args.moved)
    failures += check_wall_budget(args.current, args.wall_budget)
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
