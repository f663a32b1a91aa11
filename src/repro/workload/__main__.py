"""``python -m repro.workload`` -- run or list the canned scenarios.

    python -m repro.workload list
    python -m repro.workload run hot_key --tiny --assert-clean
    python -m repro.workload run commit_batching --profile 25
    python -m repro.workload run sync_plane --json

``run`` executes the scenario's default parameters, or with ``--tiny``
each of its seconds-long smoke cases, and prints one row per case.
``--assert-clean`` exits 1 naming every ledger or expectation a row
violates (the CI smokes).  ``--profile N`` runs under :mod:`cProfile`
and prints the top N functions by cumulative and by own time; the
simulated events are the same seeded run, only the host timings are
the profiler's.  (``perf/run.py --trace 1`` is the layer-attributed
profiler.)
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from typing import Any

from repro.workload.scenarios import SCENARIOS, clean, run, tiny_rows


def _rows(name: str, tiny: bool) -> list[dict[str, Any]]:
    return tiny_rows(name) if tiny else [run(name)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="run or list the canned workload scenarios")
    commands = parser.add_subparsers(dest="command")
    commands.add_parser("list", help="print every scenario name")
    runner = commands.add_parser("run", help="run one scenario, print its rows")
    runner.add_argument("scenario", help="a name from `list`")
    runner.add_argument("--tiny", action="store_true",
                        help="run the scenario's smoke cases instead of "
                             "its default parameters")
    runner.add_argument("--assert-clean", action="store_true",
                        help="exit 1 if any row violates the scenario's "
                             "own expectations")
    runner.add_argument("--json", action="store_true",
                        help="print the rows as one JSON list")
    runner.add_argument("--profile", type=int, metavar="N", default=None,
                        help="run under cProfile; print the top N rows")
    args = parser.parse_args(argv)

    if args.command != "run":
        for name in SCENARIOS:
            print(name)
        if args.command is None:
            parser.print_usage()
            return 2
        return 0
    if args.scenario not in SCENARIOS:
        parser.error(f"unknown scenario {args.scenario!r} "
                     f"(choices: {', '.join(SCENARIOS)})")

    if args.profile is None:
        rows = _rows(args.scenario, args.tiny)
    else:
        profiler = cProfile.Profile()
        rows = profiler.runcall(_rows, args.scenario, args.tiny)
        stats = pstats.Stats(profiler, stream=sys.stdout).strip_dirs()
        for order in ("cumulative", "tottime"):
            print(f"\n== top {args.profile} by {order} ==")
            stats.sort_stats(order).print_stats(args.profile)

    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True, default=str))
    else:
        for row in rows:
            print(f"{args.scenario}: " + ", ".join(
                f"{key}={value:.4g}" if isinstance(value, float)
                else f"{key}={value}" for key, value in row.items()))
    violations = [violation for row in rows
                  for violation in clean(args.scenario, row)
                  ] if args.assert_clean else []
    for violation in violations:
        print(f"{args.scenario}: NOT CLEAN: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
