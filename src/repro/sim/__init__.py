"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the reproduced system runs:

- :class:`~repro.sim.scheduler.Scheduler` -- the event loop with a virtual
  clock.  All time in the simulation is virtual; a run is fully determined
  by its inputs and seeds.
- :class:`~repro.sim.futures.Future` -- single-assignment result cells used
  to link processes to asynchronous completions (RPC replies, timers).
- :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes.  A process yields :class:`~repro.sim.process.Timeout` objects
  or futures and is resumed by the scheduler.
- :mod:`~repro.sim.failures` -- deterministic and stochastic fault
  injection (node crashes and recoveries).
- :mod:`~repro.sim.metrics` -- counters, histograms and time series for
  experiment measurement.
- :mod:`~repro.sim.rng` -- seeded random streams so every experiment is
  reproducible from a single integer seed.

The kernel is intentionally independent of the distributed-system model
built on top of it (see :mod:`repro.net` and :mod:`repro.cluster`).
"""

from repro.sim.errors import ProcessKilled, SimulationLimitExceeded, SimError
from repro.sim.events import Event
from repro.sim.futures import Future, FutureState, all_of, any_of
from repro.sim.process import Process, Timeout
from repro.sim.scheduler import Scheduler
from repro.sim.rng import SeededRng
from repro.sim.failures import (
    Crashable,
    CrashEvent,
    FaultPlan,
    FaultPlanError,
    StochasticFaultInjector,
)
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries

__all__ = [
    "Counter",
    "Crashable",
    "CrashEvent",
    "Event",
    "FaultPlan",
    "FaultPlanError",
    "Future",
    "FutureState",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Process",
    "ProcessKilled",
    "Scheduler",
    "SeededRng",
    "SimError",
    "SimulationLimitExceeded",
    "StochasticFaultInjector",
    "TimeSeries",
    "Timeout",
    "all_of",
    "any_of",
]
