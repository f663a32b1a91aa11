"""Workload generation and experiment sweeps.

Used by the benchmark harness to drive the simulated system:

- :class:`~repro.workload.generator.TransactionStream` -- a client
  process issuing a stream of transactions with think times and
  bounded retries, collecting per-transaction outcomes;
- :class:`~repro.workload.generator.WorkloadReport` -- aggregate
  statistics (commit rate, aborts by reason, latency percentiles);
- :mod:`~repro.workload.sweep` -- parameter-sweep helpers and plain
  text table rendering for the experiment reports.

The canned scenarios (:mod:`~repro.workload.scenarios`, run by
:mod:`~repro.workload.scenario`, checked by :mod:`~repro.workload.audit`;
``python -m repro.workload list``) build whole systems, so they are
imported on demand and not from here.
"""

from repro.workload.generator import TransactionStream, WorkloadReport, run_streams
from repro.workload.sweep import Table, sweep

__all__ = [
    "Table",
    "TransactionStream",
    "WorkloadReport",
    "run_streams",
    "sweep",
]
