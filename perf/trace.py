"""The traced run: host-time attribution by layer, and span output.

Host attribution uses :mod:`cProfile` rather than call-site wrappers
because most entry points are generators resumed by the scheduler -- a
wrapper placed around the call would time them as zero.  ``tottime`` is
bucketed by source path into the layers below; time spent in builtins
and the standard library (``isinstance``, ``sum``, ``heapq``,
``random``) is charged to the layer of whoever called them, through
the profiler's caller table.  cProfile taxes python-level calls but not
C code, so shares are a guide to where to look, not a measurement:
claims are made on the untraced end-to-end metrics.

Simulated-time spans are recorded by the benchmark's own work functions
(:class:`perf.driver.Span`); :func:`write_spans` only serialises them.
Spans inside ``src/repro`` are the roadmap's tracing item, not this.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
from pathlib import Path
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"
PERF = ROOT / "perf"

#: Layers host time is attributed to.  ``metering`` is
#: ``sim/metrics.py``, split out of ``sim`` because it is the largest
#: single cost; ``workload`` is the load generator (``repro.workload``
#: plus this package); ``tooling`` (linter, profile CLI, package
#: ``__init__``) never runs under load.
LAYERS = ("sim", "metering", "net", "actions", "storage", "replication",
          "naming", "cluster", "workload", "tooling")

_PACKAGE_LAYER = {"sim": "sim", "net": "net", "actions": "actions",
                  "storage": "storage", "replication": "replication",
                  "naming": "naming", "cluster": "cluster",
                  # ``core`` is the object model the server hosts run.
                  "core": "cluster", "workload": "workload"}

#: Public entry points whose call counts the traced run reports, as
#: ``label -> (module, qualified name)``.  Generator entry points count
#: one call per resume, so only the plain functions feed metrics.
ENTRY_POINTS = {
    "Scheduler.step": ("repro.sim.scheduler", "Scheduler.step"),
    "NetworkInterface.send": ("repro.net.network", "NetworkInterface.send"),
    "RpcAgent.call": ("repro.net.rpc", "RpcAgent.call"),
    "CommitBatcher.call": ("repro.net.batch", "CommitBatcher.call"),
    "estimate_size": ("repro.sim.metrics", "estimate_size"),
    "LockManager.try_lock": ("repro.actions.locks", "LockManager.try_lock"),
    "AtomicAction.commit": ("repro.actions.action", "AtomicAction.commit"),
    "ObjectStore.write_shadow": ("repro.storage.objectstore",
                                 "ObjectStore.write_shadow"),
    "ObjectStore.commit_shadow": ("repro.storage.objectstore",
                                  "ObjectStore.commit_shadow"),
    "ReplicaIO.read": ("repro.naming.replica_io", "ReplicaIO.read"),
    "ReplicaIO.write": ("repro.naming.replica_io", "ReplicaIO.write"),
    "ReplicaIO.converge_entry": ("repro.naming.replica_io",
                                 "ReplicaIO.converge_entry"),
    "EntryCache.lookup": ("repro.naming.entry_cache", "EntryCache.lookup"),
    "ServerHost.commit": ("repro.cluster.server_host", "ServerHost.commit"),
    "ObjectServer.commit": ("repro.cluster.server_host",
                            "ObjectServer.commit"),
}


def layer_of(filename: str) -> str | None:
    """The layer owning a source file; ``None`` outside this repo."""
    path = Path(filename)
    if path.is_relative_to(REPRO):
        parts = path.relative_to(REPRO).parts
        if parts == ("sim", "metrics.py"):
            return "metering"
        return _PACKAGE_LAYER.get(parts[0], "tooling")
    if path.is_relative_to(PERF):
        return "workload"
    return None


def _code_key(module: str, qualname: str) -> tuple[str, int, str]:
    """The pstats key ``(file, first line, name)`` of a function."""
    target: Any = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    code = target.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profiled(fn: Callable[[cProfile.Profile], Any]) -> tuple[Any, dict]:
    """Run ``fn(profiler)``; return its result and the attribution.

    ``fn`` enables the profiler around the section it wants attributed
    (see :func:`perf.driver.execute`).  The attribution holds
    ``self_share`` (layer -> share of profiled ``tottime``) and
    ``calls`` (entry-point label -> call count).
    """
    profiler = cProfile.Profile()
    result = fn(profiler)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]

    shares_memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, trail: frozenset) -> dict[str, float]:
        """Layer shares a function's own time is charged to."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4]
        # Weigh callers by the time this function spent on their
        # behalf; by call count when the profiler clocked none.
        weights = {caller: edge[2] or edge[0] * 1e-9
                   for caller, edge in callers.items()
                   if caller not in trail}
        total = sum(weights.values())
        shares: dict[str, float] = {}
        if total <= 0:
            # No caller inside the profile: the harness itself.
            shares = {"workload": 1.0}
        else:
            for caller, weight in weights.items():
                for name, part in owners(caller, trail | {func}).items():
                    shares[name] = shares.get(name, 0.0) + part * weight / total
        shares_memo[func] = shares
        return shares

    seconds = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        for name, part in owners(func, frozenset()).items():
            seconds[name] += tottime * part

    calls = {}
    for label, (module, qualname) in ENTRY_POINTS.items():
        entry = stats.get(_code_key(module, qualname))
        calls[label] = entry[1] if entry else 0
    return result, {
        "self_share": {name: (seconds[name] / total if total else 0.0)
                       for name in LAYERS},
        "calls": calls,
    }


def write_spans(path: Path, rows: Iterable[dict[str, Any]]) -> None:
    """Write one JSON object per transaction span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for row in rows:
            out.write(json.dumps(row) + "\n")
