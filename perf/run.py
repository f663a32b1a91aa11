"""The benchmark command.

Driver form (one workload, one process, last stdout line is JSON)::

    python3 perf/run.py --workload commit_write --seed 7 --seconds 12 --trace 0

Without ``--workload`` it runs all five workloads, each in its own
child process, one at a time, first untraced (the end-to-end metrics)
then traced (the per-layer metrics), prints every metric by name with
its unit, and writes the lot to ``perf/results/latest.json`` (or
``--json-out``) for ``perf/compare.py``.

Metric names, units, directions and regression bounds live in the root
``BENCHMARK.json``; this module computes exactly those and fails if
the two drift apart.  ``sim_*`` metrics are the modelled service on the
simulated clock (deterministic: they repeat exactly for one seed);
everything else is this python program on the host clock (CPU seconds
of one process, noisy).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_began_cpu = time.process_time()
PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure at {ROOT / 'src' / 'repro'}")
# Run as a script, python puts perf/ itself first on sys.path, where
# perf/trace.py would shadow the standard library's ``trace``.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != PERF]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Any  # noqa: E402

from perf import micro, trace  # noqa: E402
from perf.driver import SLO_SIM_S, RunResult, execute, percentile  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

IMPORT_CPU_S = time.process_time() - _began_cpu

RESULTS = PERF / "results"
WARMUP_SCALE = 0.05   # the discarded warm-up, and --smoke
MIN_REPEATS = 3       # a median needs three
NOISY_WALL_PER_CPU = 1.15


def definitions() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a lone sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, statistics.median(samples), q3


# -- metric computation ----------------------------------------------------------


def sim_metrics(run: RunResult) -> dict[str, float]:
    """The simulated-clock end-to-end numbers of one run."""
    span = run.load_finished - run.load_started
    return {
        "sim_commits_per_s": run.committed / span,
        "sim_p50_ms": percentile(run.latencies, 0.50) * 1e3,
        "sim_p99_ms": percentile(run.latencies, 0.99) * 1e3,
    }


def clean_cpu_s(repeats: list[RunResult]) -> float:
    """Load-phase CPU seconds with the sandbox's interference removed.

    Repeats of one seed do the same work slice for slice, and on a
    shared machine interference only ever adds time (it arrives in
    bursts of 0.1-1 s that inflate a repeat by up to 30%).  So each
    slice's cost is its fastest observation across the repeats, and the
    run's cost is their sum.
    """
    return sum(min(column) for column in
               zip(*(r.cpu_slices for r in repeats), strict=True))


def end_to_end(repeats: list[RunResult], import_cpu_s: float) -> dict:
    """``metric -> {value, q1, q3, samples}`` over the timed repeats.

    Host metrics take the median of the repeats, except
    ``host_commits_per_s`` whose value comes from :func:`clean_cpu_s`;
    its quartiles are still those of the whole repeats, so the results
    file shows how noisy the run was.
    """
    samples = {
        "host_commits_per_s": [r.committed / r.cpu_s for r in repeats],
        "setup_s": [import_cpu_s + r.build_cpu_s for r in repeats],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }
    for name, value in sim_metrics(repeats[0]).items():
        samples[name] = [value]
    out = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "q1": q1, "q3": q3, "samples": values}
    out["host_commits_per_s"]["value"] = (repeats[0].committed
                                          / clean_cpu_s(repeats))
    return out


def per_layer(run: RunResult, traced: RunResult, attribution: dict,
              micros: dict[str, float]) -> dict[str, float | None]:
    """Every per-layer metric of one workload.

    ``run`` is the untraced execution (exact counts, host rates),
    ``traced``/``attribution`` the same execution under cProfile.
    ``None`` marks a metric that does not exist on this workload
    (cache hit ratio with the cache off).
    """
    counts, commits = run.counts, run.committed
    calls = attribution["calls"]
    once = [s for s in run.spans if s.committed and s.attempts == 1]
    lookups = counts["naming.cache_hits"] + counts["naming.cache_misses"]
    out: dict[str, float | None] = {
        f"{layer}.self_share": share
        for layer, share in attribution["self_share"].items()
        if layer != "tooling"}
    out.update(micros)
    out.update({
        "sim.host_events_per_s": counts["sim.events"] / run.cpu_s,
        "sim.events_per_commit": counts["sim.events"] / commits,
        "sim.queue_compactions": counts["sim.queue_compactions"],
        "metering.estimate_size_calls_per_commit":
            calls["estimate_size"] / traced.committed,
        "net.rpcs_per_commit": counts["net.rpcs"] / commits,
        "net.bytes_per_commit": counts["net.bytes"] / commits,
        "net.mcasts_per_commit": counts["net.mcasts"] / commits,
        "net.frames_per_rpc": counts["net.wire_msgs"] / counts["net.rpcs"],
        "net.batch_mean_items": counts["net.batch_mean_items"],
        "net.msgs_dropped": counts["net.msgs_dropped"],
        "actions.lock_acquires_per_commit":
            calls["LockManager.try_lock"] / traced.committed,
        "actions.lock_refused_ratio":
            counts["actions.lock_refused_attempts"]
            / counts["cluster.attempts"],
        "storage.log_forces_per_commit":
            counts["storage.log_forces"] / commits,
        "replication.stores_excluded": counts["replication.stores_excluded"],
        "replication.replicas_masked": counts["replication.replicas_masked"],
        "naming.cache_hit_ratio": (counts["naming.cache_hits"] / lookups
                                   if counts["naming.cache_enabled"]
                                   else None),
        "naming.cache_lookups": lookups,
        "naming.get_server_rpcs_per_commit":
            counts["naming.get_server_rpcs"] / commits,
        "cluster.server_commit_calls_per_commit":
            calls["ObjectServer.commit"] / traced.committed,
        "cluster.attempts_per_commit": counts["cluster.attempts"] / commits,
        "cluster.sim_invoke_ms_p50": statistics.median(
            s.invoke_done - s.start for s in once) * 1e3,
        "cluster.sim_commit_ms_p50": statistics.median(
            s.end - s.invoke_done for s in once) * 1e3,
        "workload.gen_late_sim_ms": run.gen_late * 1e3,
        "workload.ops_offered": run.offered,
        "workload.slo_miss_ratio":
            sum(1 for lat in run.latencies if lat > SLO_SIM_S) / run.offered,
        "workload.failed_ratio": (run.offered - commits) / run.offered,
        "trace.overhead_ratio": traced.cpu_s / run.cpu_s,
    })
    for name in ("naming.sim_get_server_ms_p50", "naming.pushes_sent",
                 "naming.entries_installed", "naming.read_repairs",
                 "naming.divergence_repairs", "naming.stale_ring_retries",
                 "naming.resync_sim_s", "naming.reshard_sim_s",
                 "cluster.reinclude_sim_s"):
        out[name] = counts[name]
    return out


# -- one workload, in this process ---------------------------------------------------


def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool) -> dict[str, Any]:
    """Run the protocol for one workload; return its result record."""
    build = WORKLOADS[name].build
    scale = WARMUP_SCALE if smoke else 1.0
    execute(build, seed, WARMUP_SCALE, check=False)  # discarded warm-up

    deadline = time.perf_counter() + seconds
    first = execute(build, seed, scale)
    repeats = [first]
    record: dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke,
        "sim_fingerprint": first.fingerprint,
        "ops_offered": first.offered, "committed": first.committed,
        "audit": first.audit, "ledger_violations": first.ledger_violations,
    }
    if traced:
        profiled_run, attribution = trace.profiled(
            lambda profiler: execute(build, seed, scale, profiler=profiler,
                                     check=False))
        repeats.append(profiled_run)
        values = per_layer(first, profiled_run, attribution, micro.run_all())
        record["per_layer"] = values
        record["entry_point_calls"] = attribution["calls"]
        trace.write_spans(RESULTS / f"trace_{name}.jsonl",
                          (span.as_row() for span in first.spans))
    else:
        while not smoke and (len(repeats) < MIN_REPEATS
                             or time.perf_counter() < deadline):
            repeats.append(execute(build, seed, scale, check=False))
        record["end_to_end"] = end_to_end(repeats, IMPORT_CPU_S)
        record["repeats"] = [
            {"cpu_s": r.cpu_s, "wall_s": r.wall_s,
             "noisy": r.wall_s / r.cpu_s > NOISY_WALL_PER_CPU}
            for r in repeats]
    fingerprints = {r.fingerprint for r in repeats}
    record["deterministic"] = len(fingerprints) == 1
    record["runs"] = len(repeats)
    record["attempted"] = sum(r.offered for r in repeats)
    record["failed"] = sum(r.offered - r.committed for r in repeats)
    record["correct"] = (record["deterministic"] and record["failed"] == 0
                         and first.ledger_violations == 0)
    return record


def contract_metrics(record: dict[str, Any],
                     spec: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The ``metrics`` object of the driver's result line."""
    if "per_layer" in record:
        wanted, values = spec["per_layer"], record["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {name: entry["value"]
                  for name, entry in record["end_to_end"].items()}
    names = [metric["name"] for metric in wanted]
    if set(names) != set(values):
        raise SystemExit(
            "BENCHMARK.json and perf/run.py disagree on metrics: "
            f"{sorted(set(names) ^ set(values))}")
    # A metric that does not exist on this workload reads 0 on the
    # driver's line (which admits only numbers); the record keeps None.
    return {metric["name"]: {"value": values[metric["name"]] or 0,
                             "unit": metric["unit"]} for metric in wanted}


def show(record: dict[str, Any], metrics: dict[str, dict[str, Any]]) -> None:
    workload = WORKLOADS[record["workload"]]
    print(f"== {workload.name} ({workload.loop}), seed {record['seed']}"
          f"{', smoke size' if record['smoke'] else ''}")
    print(f"   ops_offered={record['ops_offered']} "
          f"committed={record['committed']} "
          f"ledger_violations={record['ledger_violations']} "
          f"sim_fingerprint={record['sim_fingerprint'][:12]} "
          f"(one across {record['runs']} runs: {record['deterministic']})")
    for name, metric in metrics.items():
        shown = ("n/a" if record.get("per_layer", {}).get(name, 0) is None
                 else f"{metric['value']:.6g}")
        print(f"   {name:42s} {shown:>12s} {metric['unit']}")
    for index, repeat in enumerate(record.get("repeats", [])):
        if repeat["noisy"]:
            print(f"   repeat {index} noisy: wall/cpu = "
                  f"{repeat['wall_s'] / repeat['cpu_s']:.2f}")


# -- all workloads, one child process each ---------------------------------------------


def run_children(args: argparse.Namespace) -> int:
    """Every workload untraced then traced; merge into one results file."""
    merged: dict[str, Any] = {"seed": args.seed, "smoke": args.smoke,
                              "workloads": {}}
    status = 0
    RESULTS.mkdir(exist_ok=True)
    for name in WORKLOADS:
        records = []
        for traced in (0, 1):
            part = RESULTS / f"part_{name}_{traced}.json"
            command = [sys.executable, str(PERF / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced),
                       "--json-out", str(part)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's last line is the driver's JSON; show the rest.
            print(child.stdout.rsplit("\n", 2)[0])
            status = status or child.returncode
            if part.exists():
                records.append(json.loads(part.read_text()))
                part.unlink()
        if len(records) == 2:
            plain, layered = records
            plain["per_layer"] = layered["per_layer"]
            plain["entry_point_calls"] = layered["entry_point_calls"]
            plain["correct"] = plain["correct"] and layered["correct"]
            merged["workloads"][name] = plain
    out = Path(args.json_out) if args.json_out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep timing repeats for this long (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one run: a correctness check")
    parser.add_argument("--json-out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    spec = definitions()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_children(args)

    record = measure(args.workload, args.seed, args.seconds,
                     traced=bool(args.trace), smoke=args.smoke)
    metrics = contract_metrics(record, spec)
    show(record, metrics)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
