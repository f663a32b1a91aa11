"""Fault injection: crashes, recoveries, and gray failures.

The paper assumes fail-silent nodes (section 2.1): a node either works
as specified or stops.  Volatile state is lost on a crash, stable
storage survives.  Production failure modes are messier, so the
injectors also script the *gray* ones the fail-silent model hides:

- **degrade/restore** -- a host stays up but its interfaces charge a
  service-time multiplier and drop a fraction of traffic (alive but
  10-100x slow; see :meth:`repro.net.network.Network.degrade`);
- **partition/heal** -- one *direction* of a host pair goes dark while
  the other keeps delivering (the partial partitions that make replica
  peers diverge);
- **skew/unskew** -- a client's lease anchor flips from probe-send to
  reply-receive time, quietly stretching the staleness bound by one
  round trip (see :class:`repro.naming.entry_cache.EntryCache`).

This module schedules *when* faults happen; *what* each fault means is
implemented by the target (:class:`repro.cluster.node.Node`, the
network, or the entry caches).

Two injectors are provided:

- :class:`FaultPlan` -- a deterministic script of timed events, used by
  tests and by experiments that need a precise interleaving (e.g.
  "crash the store node during commit").  The script is validated at
  install time: events that cannot follow from the state the earlier
  events left a target in (crash-of-crashed, recover-of-live,
  degrade-of-crashed) raise :class:`FaultPlanError` naming the
  offending event instead of silently producing nonsense.
- :class:`StochasticFaultInjector` -- exponential crash inter-arrival
  times with configurable repair times, used by the availability
  sweeps.  It only crashes: gray faults are scripted by a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.sim.rng import SeededRng
from repro.sim.scheduler import Scheduler

#: Event kinds a plan may script.  ``crash``/``recover`` target a
#: :class:`Crashable`; ``degrade``/``restore`` and the directional
#: ``partition``/``heal`` target the network; ``skew``/``unskew`` flip
#: a client's lease anchor.
FAULT_KINDS = ("crash", "recover", "degrade", "restore",
               "partition", "heal", "skew", "unskew")

_NETWORK_KINDS = ("degrade", "restore", "partition", "heal")


class Crashable(Protocol):
    """Anything that can be crashed and recovered by an injector."""

    @property
    def name(self) -> str: ...

    @property
    def crashed(self) -> bool: ...

    def crash(self) -> None: ...

    def recover(self) -> None: ...


class FaultPlanError(ValueError):
    """A scripted event cannot follow from the events before it.

    Carries the offending :class:`CrashEvent` so harness code can
    report exactly which line of the script is wrong.
    """

    def __init__(self, event: "CrashEvent", reason: str) -> None:
        super().__init__(f"invalid fault plan event {event}: {reason}")
        self.event = event
        self.reason = reason


@dataclass(frozen=True)
class CrashEvent:
    """One scripted fault against ``target`` at ``time``.

    ``factor``/``drop`` apply to ``degrade`` events (interface
    service-time multiplier and per-message drop probability);
    ``peer`` names the destination host of a directional
    ``partition``/``heal``.
    """

    time: float
    target: str
    kind: str  # one of FAULT_KINDS
    factor: float = 1.0
    drop: float = 0.0
    peer: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.kind == "degrade":
            if self.factor < 1.0:
                raise ValueError(
                    f"degrade factor must be >= 1, got {self.factor}")
            if not 0.0 <= self.drop < 1.0:
                raise ValueError(
                    f"degrade drop probability out of range: {self.drop}")
            if self.factor == 1.0 and self.drop == 0.0:
                raise ValueError("a degrade must slow or drop something")
        if self.kind in ("partition", "heal"):
            if not self.peer:
                raise ValueError(f"{self.kind} event needs a peer host")
            if self.peer == self.target:
                raise ValueError(f"{self.kind} of a host with itself")


@dataclass
class FaultPlan:
    """A deterministic script of fault events.

    Example::

        plan = FaultPlan()
        plan.crash_at(5.0, "node-b")
        plan.recover_at(9.0, "node-b")
        plan.gray(2.0, 8.0, "node-c", factor=20.0, drop=0.1)
        plan.install(scheduler, {...}, network=net)
    """

    events: list[CrashEvent] = field(default_factory=list)

    def crash_at(self, time: float, target: str) -> "FaultPlan":
        self.events.append(CrashEvent(time, target, "crash"))
        return self

    def recover_at(self, time: float, target: str) -> "FaultPlan":
        self.events.append(CrashEvent(time, target, "recover"))
        return self

    def outage(self, start: float, end: float, target: str) -> "FaultPlan":
        """Convenience: crash at ``start`` and recover at ``end``."""
        if end <= start:
            raise ValueError(f"outage must end after it starts: {start} .. {end}")
        return self.crash_at(start, target).recover_at(end, target)

    def degrade_at(self, time: float, target: str, factor: float = 10.0,
                   drop: float = 0.0) -> "FaultPlan":
        self.events.append(CrashEvent(time, target, "degrade",
                                      factor=factor, drop=drop))
        return self

    def restore_at(self, time: float, target: str) -> "FaultPlan":
        self.events.append(CrashEvent(time, target, "restore"))
        return self

    def gray(self, start: float, end: float, target: str,
             factor: float = 10.0, drop: float = 0.0) -> "FaultPlan":
        """Convenience: degrade at ``start`` and restore at ``end``."""
        if end <= start:
            raise ValueError(
                f"gray window must end after it starts: {start} .. {end}")
        return (self.degrade_at(start, target, factor=factor, drop=drop)
                .restore_at(end, target))

    def partition_at(self, time: float, src: str, dst: str) -> "FaultPlan":
        """Block the ``src -> dst`` direction (only) from ``time`` on."""
        self.events.append(CrashEvent(time, src, "partition", peer=dst))
        return self

    def heal_at(self, time: float, src: str, dst: str) -> "FaultPlan":
        self.events.append(CrashEvent(time, src, "heal", peer=dst))
        return self

    def partial_partition(self, start: float, end: float, src: str,
                          dst: str) -> "FaultPlan":
        """Convenience: one directional block for the window."""
        if end <= start:
            raise ValueError(
                f"partition must end after it starts: {start} .. {end}")
        return self.partition_at(start, src, dst).heal_at(end, src, dst)

    def skew_at(self, time: float, target: str) -> "FaultPlan":
        """Anchor ``target``'s cached leases at reply-receive time."""
        self.events.append(CrashEvent(time, target, "skew"))
        return self

    def unskew_at(self, time: float, target: str) -> "FaultPlan":
        self.events.append(CrashEvent(time, target, "unskew"))
        return self

    def targets(self) -> set[str]:
        """Every node name the plan touches (either event end)."""
        names = {event.target for event in self.events}
        names.update(event.peer for event in self.events
                     if event.peer is not None)
        return names

    def validate(self, already_crashed: set[str] | None = None) -> None:
        """Reject scripts whose events cannot follow from one another.

        Replays the events in time order through a per-target state
        machine: a crash of an already-crashed target, a recovery of a
        live one, or a degrade of a crashed one (its interfaces are
        down; there is nothing to slow) raises :class:`FaultPlanError`
        naming the offending event.  Network and lease events on a
        crashed host are rejected for the same reason.

        ``already_crashed`` seeds the state machine with targets that
        are down *before* the plan runs (a harness may crash a node by
        hand and script only its recovery); :meth:`install` passes the
        targets' live crash flags automatically.
        """
        crashed: set[str] = set(already_crashed or ())
        for event in sorted(self.events, key=lambda e: e.time):
            if event.kind == "crash":
                if event.target in crashed:
                    raise FaultPlanError(event, "target is already crashed")
                crashed.add(event.target)
            elif event.kind == "recover":
                if event.target not in crashed:
                    raise FaultPlanError(
                        event, "target is not crashed at this time")
                crashed.discard(event.target)
            elif event.target in crashed:
                raise FaultPlanError(
                    event, f"cannot {event.kind} a crashed target")

    def install(self, scheduler: Scheduler, targets: dict[str, Crashable],
                network: Any = None,
                caches: dict[str, Any] | None = None) -> None:
        """Validate the script and schedule every event.

        Any crashable node qualifies -- including the name-service
        shard hosts (``namenode0..``), whose outages the replicated
        ring and the shard-resync protocol are built to absorb.
        ``network`` (a :class:`~repro.net.network.Network`) is required
        when the plan scripts degrade/restore/partition/heal events;
        ``caches`` (a live name -> :class:`EntryCache` mapping, keys
        prefixed by the owning node's name) is required for
        skew/unskew.
        """
        self.validate(already_crashed={
            name for name, target in targets.items() if target.crashed})
        missing = self.targets() - set(targets)
        if missing:
            raise ValueError(
                f"fault plan targets unknown nodes: {sorted(missing)} "
                f"(known: {sorted(targets)})")
        if network is None and any(e.kind in _NETWORK_KINDS
                                   for e in self.events):
            raise ValueError(
                "fault plan scripts network faults but no network was given")
        if caches is None and any(e.kind in ("skew", "unskew")
                                  for e in self.events):
            raise ValueError(
                "fault plan scripts lease skew but no caches were given")
        for event in self.events:
            if event.kind == "crash":
                scheduler.schedule_at(event.time, self._apply_crash,
                                      targets[event.target])
            elif event.kind == "recover":
                scheduler.schedule_at(event.time, self._apply_recover,
                                      targets[event.target])
            elif event.kind == "degrade":
                scheduler.schedule_at(event.time, network.degrade,
                                      event.target, event.factor, event.drop)
            elif event.kind == "restore":
                scheduler.schedule_at(event.time, network.restore,
                                      event.target)
            elif event.kind == "partition":
                scheduler.schedule_at(event.time, network.block,
                                      event.target, event.peer)
            elif event.kind == "heal":
                scheduler.schedule_at(event.time, network.unblock,
                                      event.target, event.peer)
            else:  # skew / unskew
                anchor = "receive" if event.kind == "skew" else "send"
                scheduler.schedule_at(event.time, self._apply_anchor,
                                      caches, event.target, anchor)

    @staticmethod
    def _apply_crash(target: Crashable) -> None:
        if not target.crashed:
            target.crash()

    @staticmethod
    def _apply_recover(target: Crashable) -> None:
        if target.crashed:
            target.recover()

    @staticmethod
    def _apply_anchor(caches: dict[str, Any], target: str,
                      anchor: str) -> None:
        # Caches are keyed by owning node name (plus a "+suffix" per
        # extra client context on the node); skew every cache the
        # target node owns.  Applying at fire time, not install time,
        # means caches registered after ``install`` still skew.
        for key, cache in caches.items():
            if key == target or key.startswith(target + "+"):
                cache.anchor = anchor


class StochasticFaultInjector:
    """Crashes targets at exponential intervals; repairs after a delay.

    Per target, crash inter-arrival times are exponential with mean
    ``mean_time_to_failure`` and downtimes are exponential with mean
    ``mean_time_to_repair``.  With ``mean_time_to_repair=None`` crashed
    targets never recover, which models the paper's per-action fault
    window.  Every draw rides a per-target substream, so a run is
    bitwise-reproducible from the root seed; ``timeline`` records every
    injected transition ``(time, target, kind)`` for exactly that
    proof.

    The injector stops scheduling after ``stop_after`` virtual time so
    that runs terminate.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: SeededRng,
        mean_time_to_failure: float,
        mean_time_to_repair: float | None = None,
        stop_after: float | None = None,
    ) -> None:
        if mean_time_to_failure <= 0:
            raise ValueError("mean_time_to_failure must be positive")
        self._scheduler = scheduler
        self._rng = rng
        self._mttf = mean_time_to_failure
        self._mttr = mean_time_to_repair
        self._stop_after = stop_after
        self.crashes_injected = 0
        self.recoveries_injected = 0
        #: Every injected transition as ``(virtual time, target, kind)``.
        self.timeline: list[tuple[float, str, str]] = []

    def attach(self, target: Crashable) -> None:
        """Begin injecting faults into ``target``."""
        stream = self._rng.substream(f"faults/{target.name}")
        self._schedule_crash(target, stream)

    def attach_all(self, targets: list[Crashable]) -> None:
        for target in targets:
            self.attach(target)

    # -- internals ---------------------------------------------------------

    def _schedule_crash(self, target: Crashable, stream: SeededRng) -> None:
        delay = stream.exponential(self._mttf)
        when = self._scheduler.now + delay
        if self._stop_after is not None and when > self._stop_after:
            return
        self._scheduler.schedule(delay, self._crash, target, stream)

    def _crash(self, target: Crashable, stream: SeededRng) -> None:
        if target.crashed:
            # Already down (e.g. scripted fault overlapped); try again later.
            self._schedule_crash(target, stream)
            return
        target.crash()
        self.crashes_injected += 1
        self.timeline.append((self._scheduler.now, target.name, "crash"))
        if self._mttr is not None:
            downtime = stream.exponential(self._mttr)
            self._scheduler.schedule(downtime, self._recover, target, stream)

    def _recover(self, target: Crashable, stream: SeededRng) -> None:
        if target.crashed:
            target.recover()
            self.recoveries_injected += 1
            self.timeline.append(
                (self._scheduler.now, target.name, "recover"))
        self._schedule_crash(target, stream)
