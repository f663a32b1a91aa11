"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate.  Every (workload, end-to-end
metric) pair gets one row with a verdict from the metric's direction
and regression bound in ``BENCHMARK.json``:

- ``same``       B's median is within the bound of A's;
- ``better`` / ``worse``  B moved past the bound;
- ``unresolved`` either side's quartile spread over its repeats is
  wider than the bound, so the run cannot tell (reported instead of
  ``same``, never instead of ``worse``).

``sim_fingerprint``s are compared too: equal fingerprints mean the
modelled service behaved identically, transaction for transaction,
which is what a host-speed optimisation must show.  Per-layer metrics
have no bounds; the ones on the simulated clock or counting work repeat
exactly, so each that changed is listed as ``differs``.  Exits non-zero
on any ``worse`` row or a higher ``failed_ratio``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def on_host_clock(name: str) -> bool:
    """Whether a per-layer metric is host time (noisy), not a count."""
    return (name.endswith(("_us", ".self_share"))
            or name in ("sim.host_events_per_s", "trace.overhead_ratio"))


def verdict(base: dict[str, float], cand: dict[str, float], better: str,
            bound: float) -> str:
    """One (workload, metric) row's verdict; see the module docstring."""
    change = (cand["value"] - base["value"]) / abs(base["value"])
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "worse"
    spread = max((side["q3"] - side["q1"]) / abs(side["value"])
                 for side in (base, cand))
    if spread > bound:
        return "unresolved"
    return "better" if gain > bound else "same"


def compare(base: dict[str, Any], cand: dict[str, Any],
            spec: dict[str, Any]) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, A, B, change, verdict)`` and pass/fail."""
    rows, ok = [], True
    for name, a in base["workloads"].items():
        b = cand["workloads"].get(name)
        if b is None:
            rows.append((name, "(workload)", "", "", "", "missing in B"))
            ok = False
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            ours, theirs = a["end_to_end"][key], b["end_to_end"][key]
            result = verdict(ours, theirs, metric["better"], metric["bound"])
            ok = ok and result != "worse"
            rows.append((name, key, f"{ours['value']:.6g}",
                         f"{theirs['value']:.6g}",
                         f"{theirs['value'] / ours['value'] - 1:+.2%}",
                         result))
        same_sim = a["sim_fingerprint"] == b["sim_fingerprint"]
        rows.append((name, "sim_fingerprint", a["sim_fingerprint"][:10],
                     b["sim_fingerprint"][:10], "",
                     "same" if same_sim else "differs"))
        failed = [side["failed"] / side["attempted"] for side in (a, b)]
        if failed[1] > failed[0] or not b["correct"]:
            ok = False
        rows.append((name, "failed_ratio", f"{failed[0]:.4g}",
                     f"{failed[1]:.4g}", "",
                     "worse" if failed[1] > failed[0] else "same"))
        exact = [key for key in a.get("per_layer", {})
                 if not on_host_clock(key)]
        moved = [key for key in exact
                 if a["per_layer"][key] != b.get("per_layer", {}).get(key)]
        for key in moved:
            rows.append((name, key, f"{a['per_layer'][key]}",
                         f"{b.get('per_layer', {}).get(key)}", "", "differs"))
        rows.append((name, "(exact per-layer metrics)", len(exact),
                     len(exact) - len(moved), "",
                     "same" if not moved else f"{len(moved)} differ"))
    return rows, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(arg).read_text()) for arg in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = compare(base, cand, spec)
    widths = [max(len(str(row[i])) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)))
    print("PASS" if ok else "FAIL: a metric got worse")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
