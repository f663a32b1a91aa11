"""List the ``src/repro`` functions that nothing the system runs executes.

ROADMAP's standing deletion item asks that dead code be found by
measurement, not by reading.  This runs, under one ``sys.settrace``
call-event tracer:

- every scenario at its default parameters and at each ``--tiny`` case,
  with the scenario's own ``clean`` check over every row;
- every module of ``benchmarks/gated_benches.txt``, through pytest with
  ``--benchmark-disable``;
- every ``perf/workloads.py`` workload once at full size (seed 7), with
  the settle and audit that ``perf/run.py``'s first run makes, printing
  one ``workload`` line with its ``sim_fingerprint`` and audit counts
  (so "fingerprints unchanged" reads off the output at no extra cost);

and lists each ``def`` under ``src/repro`` whose code object never ran,
matched on file and first line (a decorated function's first line is
its first decorator's).  Tests are not evidence: a function only a test
calls is a function the system does not need.

``--benchmark-disable`` is load-bearing.  pytest-benchmark's
``PauseInstrumentation`` switches off ``sys.settrace`` and
``sys.setprofile`` inside ``benchmark.pedantic``, which is where every
experiment runs, so without it most of the bench pass goes unseen and
live code reads as dead.

``--check`` exits 1 on any unreached function that :data:`EXEMPT` does
not name, and on any :data:`EXEMPT` pattern that names no function.
Each exemption carries its reason.  The traced pass takes minutes; CI
runs it, tier-1 tests the machinery on a fixture package::

    PYTHONPATH=src python -m benchmarks.reach          # the list
    PYTHONPATH=src python -m benchmarks.reach --check  # gate on it
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import pytest

from benchmarks.code_lines import code_line_numbers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fnmatch pattern over ``module.Qual.name`` -> why it may stay unreached.
_SIBLING = "naming-service interface member; a sibling implementation is reached"
EXEMPT: dict[str, str] = {
    # Separate tools, with their own tests and CI steps.
    "repro.analysis.*": "the invariant linter: its own CLI, tests and CI job",
    "repro.workload.__main__.*": "the scenario CLI: CI's smoke step runs it",
    # ROADMAP, "Finish the paper-core recovery bugs", decides whether
    # shadow resolution becomes default-on.
    "repro.cluster.recovery.ShadowResolver.*":
        "off by default (enable_shadow_resolvers); a ROADMAP item decides",
    "repro.storage.objectstore.ObjectStore.has_shadow":
        "the ShadowResolver's store query",
    "repro.storage.objectstore.ObjectStore.shadow_version_of":
        "the ShadowResolver's store query",
    # Safety code: undo, abort and error paths.
    "*.undo": "an undo-log closure: runs only when an action aborts",
    "*._remove_silently": "undo of an insert or include (abort path)",
    "repro.naming.object_state_db.ObjectStateDatabase._reinsert":
        "undo of an exclude (abort path)",
    "repro.actions.records.CallbackRecord.abort":
        "abort path of a callback record",
    "repro.naming.group_view_db.GroupViewDatabase.abort_many":
        "batched abort path of the naming participant",
    "repro.cluster.store_host.StoreHost.discard_shadow_many":
        "batched abort path of the store participant",
    "repro.net.multicast.ReliableOrderedMulticastMember.unexpect":
        "undo of expect() when a coherence registration fails",
    "repro.sim.failures.FaultPlanError.__init__":
        "the error an invalid fault script raises",
    # Duck-typed interface members: a sibling implementation is reached.
    "*.knows": _SIBLING,
    "*.is_quiescent": _SIBLING,
    "repro.actions.locks.LockManager.is_locked":
        "the lock query ObjectServerDatabase.is_quiescent makes",
    "repro.naming.sharded_client.ShardedGroupViewDatabase.abort": _SIBLING,
    "repro.naming.nonatomic.NonAtomicNameServer.*":
        "non-atomic name-server verb; paper_client_crash reaches the class",
    # Abstract members and base-class defaults whose overrides are reached.
    "repro.actions.action.AbstractRecord.prepare":
        "base-record default; every live record overrides it",
    "repro.actions.action.AbstractRecord.commit":
        "base-record default; every live record overrides it",
    "repro.core.objects.PersistentObject.save_state":
        "abstract: every object class implements it",
    "repro.core.objects.PersistentObject.restore_state":
        "abstract: every object class implements it",
    "repro.naming.binding.Binder.__call__": "protocol signature",
    "repro.naming.binding.BindingScheme.bind":
        "abstract: each binding scheme implements it",
    "repro.replication.policy.ReplicationPolicy.activation_degree":
        "abstract: each replication policy implements it",
    "repro.replication.policy.ReplicationPolicy.invoke":
        "abstract: each replication policy implements it",
    "repro.net.latency.LatencyModel.*": "abstract: FixedLatency implements it",
    "repro.net.multicast.MulticastMember._on_message":
        "abstract: each multicast member implements it",
    "repro.sim.failures.Crashable.*": "protocol: Node implements it",
    # Live code calls these on a branch no workload takes.
    "repro.actions.action.AbstractRecord.merge_into_parent":
        "AtomicAction._commit_nested hands records to the parent with it",
    "repro.naming.coherence.CoherenceHost.retire":
        "draining a shard host with the coherence plane on",
    "repro.naming.shard_router.RingTransition.mark_dirty":
        "RingView.mark_dirty: a transition-time write that skipped a replica",
    "repro.naming.sharded_client.ShardedGroupViewDbClient._try_renew":
        "push re-registration: no workload lets a push entry outlive its "
        "registration TTL (tests/integration/test_coherence_plane.py does)",
    # Names frozen perf/ code calls.
    "repro.sim.events.EventQueue.push": "perf/micro.py queue_push_pop",
    "repro.sim.events.EventQueue.pop": "perf/micro.py queue_push_pop",
    "repro.sim.events.EventQueue.__len__":
        "the live count beside push/pop; the scheduler inlines all of them",
    "repro.sim.events.EventQueue.__bool__":
        "the live count beside push/pop; the scheduler inlines all of them",
    "repro.naming.replica_io.ReplicaIO.converge_entry":
        "perf/trace.py names it as an entry point",
    # Fault-injection seams.
    "repro.sim.failures.FaultPlan.skew_at": "fault seam: lease-anchor skew",
    "repro.sim.failures.FaultPlan.unskew_at": "fault seam: lease-anchor skew",
    "repro.sim.failures.FaultPlan._apply_anchor":
        "fault seam: lease-anchor skew",
    "repro.net.network.Network.add_drop_rule":
        "fault seam: a targeted message drop",
    "repro.net.network.Network.clear_drop_rules":
        "fault seam: a targeted message drop",
    "*.__repr__": "debugging aid",
    # Public API an example program calls.
    "repro.workload.generator.WorkloadReport.aborted":
        "examples/availability_study.py prints it",
    "repro.storage.states.OutputObjectState.pack_string":
        "object-state API: examples/bank_accounts.py packs a string",
    "repro.storage.states.InputObjectState.unpack_string":
        "object-state API: examples/bank_accounts.py unpacks a string",
}


@dataclass(frozen=True)
class Function:
    """One ``def``: where its code object starts, its name, its size."""

    path: Path
    line: int
    name: str
    code_lines: frozenset[int]

    def __str__(self) -> str:
        return (f"{self.name}  ({self.path.relative_to(ROOT)}:{self.line}, "
                f"{len(self.code_lines)} code lines)")


def functions(package: Path) -> list[Function]:
    """Every ``def`` in the ``*.py`` files under ``package``."""
    found: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        code = code_line_numbers(source)
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                 decorator in child.decorator_list])
                    name = f"{prefix}.{child.name}"
                    span = range(first, child.end_lineno + 1)
                    found.append(Function(path.resolve(), first, name,
                                          frozenset(code.intersection(span))))
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(source), module)
    return found


def reached_during(runs: Iterable[Callable[[], object]]) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object that ran in ``runs``."""
    started: set[tuple[str, int]] = set()

    def tracer(frame, event, _arg):
        code = frame.f_code
        started.add((code.co_filename, code.co_firstlineno))
        return None  # no line events: the call is all the evidence needed

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    return {(os.path.realpath(filename), line) for filename, line in started}


def unreached(candidates: list[Function],
              reached: set[tuple[str, int]]) -> list[Function]:
    return [fn for fn in candidates if (str(fn.path), fn.line) not in reached]


def exemption(fn: Function, exempt: dict[str, str]) -> str | None:
    """The pattern in ``exempt`` that excuses ``fn``, if any."""
    return next((pattern for pattern in exempt
                 if fnmatch.fnmatchcase(fn.name, pattern)), None)


def report(dead: list[Function], everything: list[Function],
           exempt: dict[str, str], check: bool) -> int:
    """Print the unreached functions; with ``check``, gate on them."""
    excused = {fn: exemption(fn, exempt) for fn in dead}
    unlisted = [fn for fn in dead if excused[fn] is None]
    for fn in dead:
        print(f"{'exempt' if excused[fn] else 'DEAD  '}  {fn}")
    stale = [pattern for pattern in exempt if not any(
        fnmatch.fnmatchcase(fn.name, pattern) for fn in everything)]
    for pattern in stale:
        print(f"STALE   exemption {pattern!r} names no function")
    print(f"unreached src functions: {len(unlisted)} "
          f"(exempt: {len(dead) - len(unlisted)})")
    return 1 if check and (unlisted or stale) else 0


# -- what the system runs --------------------------------------------------------


def scenario_pass() -> None:
    from repro.workload.scenarios import SCENARIOS, clean, run, tiny_rows
    for name in SCENARIOS:
        for row in [*tiny_rows(name), run(name)]:
            clean(name, row)


class _KeepBaselines:
    """A traced pass must not rewrite the checked-in ``BENCH_*.json``:
    empty the registry before ``benchmarks/conftest.py`` drains it."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self) -> None:
        from benchmarks.common import BENCH_RESULTS, BENCH_WALL_CLOCK
        BENCH_RESULTS.clear()
        BENCH_WALL_CLOCK.clear()


def bench_pass(modules: list[str]) -> None:
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--benchmark-disable", *modules],
                         plugins=[_KeepBaselines()])
    if status != 0:
        raise SystemExit(f"reach: the bench pass failed ({status})")


def gated_benches() -> list[str]:
    listed = (ROOT / "benchmarks" / "gated_benches.txt").read_text().split()
    return [str(ROOT / module) for module in listed]


def workload_pass() -> None:
    from perf.driver import execute
    from perf.workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        run = execute(workload.build, 7, 1.0)
        audit = " ".join(f"{check}={count}"
                         for check, count in sorted(run.audit.items()))
        print(f"workload {name}: sim_fingerprint {run.fingerprint[:12]} "
              f"{audit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.reach",
        description="list src functions no scenario, bench or perf "
                    "workload executes")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function EXEMPT does "
                             "not name, or on a stale EXEMPT pattern")
    args = parser.parse_args(argv)
    # The passes import ``repro`` themselves, inside the traced region:
    # a decorator or registry call that runs at import time is reached.
    reached = reached_during([scenario_pass,
                              lambda: bench_pass(gated_benches()),
                              workload_pass])
    everything = functions(SRC / "repro")
    return report(unreached(everything, reached), everything, EXEMPT,
                  args.check)


if __name__ == "__main__":
    sys.exit(main())
