"""Measurement instruments for experiments.

A :class:`MetricsRegistry` is threaded through the cluster and naming
layers; benchmarks read a :meth:`~MetricsRegistry.snapshot` at the end of
a run.  Instruments are deliberately simple -- exact values kept in
memory -- because simulated runs are bounded.
"""

from __future__ import annotations

import math
from typing import Any


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Collects observations; computes summary statistics on demand."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self.values:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self.values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else math.nan

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum,
        }


class TimeSeries:
    """Timestamped samples, for plotting metric evolution over a run."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.samples.append((time, value))

# Fixed-cost payload types, keyed by exact ``type()`` (``str`` is sized
# by length and tested first).
_SCALAR_SIZE = {type(None): 4, bool: 4, int: 8, float: 8}
# Sequence types, keyed by exact ``type()``: a subclass (an action path
# carrying its coordinator, a ``NamedTuple``) joins on first sight.
_SEQUENCES = {tuple, list, set, frozenset}
# ``__dataclass_fields__`` names per dataclass, filled on first sight.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def estimate_size(payload: Any, depth: int = 4) -> int:
    """A cheap, repr-free estimate of a payload's wire size.

    Formatting the whole payload (``len(repr(...))``) on every recorded
    message was a measured hot-path cost at 10^5+ offered ops.  This
    walks the payload structurally instead: fixed costs for scalars,
    lengths for strings/bytes, shallow depth-bounded recursion for
    containers and dataclasses.  Still deterministic (no ids or
    hashes), still proportional to payload volume, but never formats a
    character.  Beyond ``depth`` a container is charged a flat per-item
    cost, which keeps one record O(small) no matter how deep the
    payload nests.

    Dispatch is on the exact ``type()``, and a container's scalar items
    are costed in its own loop rather than by a call each; only a
    subclass of a builtin (an ``IntEnum``, a ``NamedTuple``) or an
    unstructured object takes the ``isinstance`` route in
    :func:`_estimate_subclass`.
    """
    kind = type(payload)
    if kind is str:
        return 2 + len(payload)
    size = _SCALAR_SIZE.get(kind)
    if size is not None:
        return size
    if kind in _SEQUENCES:
        if depth <= 0:
            return 8 + 8 * len(payload)
        items: Any = payload
    elif kind is dict:
        if depth <= 0:
            return 8 + 16 * len(payload)
        items = (*payload, *payload.values())
    elif kind is bytes or kind is bytearray:
        return len(payload)
    else:
        names = _FIELD_NAMES.get(kind)
        if names is None:
            return _estimate_subclass(payload, depth)
        if depth <= 0:
            return 8 + 8 * len(names)
        items = [getattr(payload, name) for name in names]
    depth -= 1
    total = 8
    for item in items:
        kind = type(item)
        if kind is str:
            total += 2 + len(item)
        else:
            size = _SCALAR_SIZE.get(kind)
            total += estimate_size(item, depth) if size is None else size
    return total


def _estimate_subclass(payload: Any, depth: int) -> int:
    """Size a payload whose exact type :func:`estimate_size` has no
    entry for: a subclass is charged as the builtin it extends (a
    sequence subclass is registered as one), a dataclass is registered
    and walked, anything else is formatted."""
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return 2 + len(payload)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        _SEQUENCES.add(type(payload))
        return estimate_size(payload, depth)
    if isinstance(payload, dict):
        return estimate_size(dict(payload), depth)
    fields = getattr(type(payload), "__dataclass_fields__", None)
    if fields is not None:
        _FIELD_NAMES[type(payload)] = tuple(fields)
        return estimate_size(payload, depth)
    # Rare non-structured payload: its ``repr`` length, deterministic
    # for the values the simulation ships.
    return len(repr(payload))


class PlaneTraffic:
    """RPC, multicast, and byte counters for one (host, plane) pair.

    The per-node RPC agents record every message they put on or take
    off their interface here, under
    ``traffic.<host>.<plane>.{rpcs,bytes}_{in,out}`` in the shared
    registry -- so a snapshot splits each host's load into its client
    and sync planes without touching the network layer.  Multicast
    members record their frames separately
    (``traffic.<host>.<plane>.mcasts_{in,out}``) but into the *same*
    byte counters, so per-plane byte volume stays the single source of
    truth for what rode each NIC.

    The rpc/mcast message counts are exact.  Byte volume is metered
    with :func:`estimate_size` (structural walk, no ``repr``) -- the
    per-message formatting cost was measurable at 10^5 offered ops --
    and the six counters are resolved once at construction instead of
    through a registry dict lookup per message.

    A message is sized once: the ``record_*sent`` methods return the
    size they charged, the sender puts it on the wire message, and the
    receiver hands it back as ``size`` (``None``, from an unmetered
    sender, sizes the payload here).
    """

    __slots__ = ("host", "plane", "_rpcs_out", "_rpcs_in", "_mcasts_out",
                 "_mcasts_in", "_bytes_out", "_bytes_in")

    def __init__(self, registry: "MetricsRegistry", host: str,
                 plane: str) -> None:
        self.host = host
        self.plane = plane
        prefix = f"traffic.{host}.{plane}."
        self._rpcs_out = registry.counter(prefix + "rpcs_out")
        self._rpcs_in = registry.counter(prefix + "rpcs_in")
        self._mcasts_out = registry.counter(prefix + "mcasts_out")
        self._mcasts_in = registry.counter(prefix + "mcasts_in")
        self._bytes_out = registry.counter(prefix + "bytes_out")
        self._bytes_in = registry.counter(prefix + "bytes_in")

    def record_sent(self, payload: Any) -> int:
        size = estimate_size(payload)
        self._rpcs_out.value += 1
        self._bytes_out.value += size
        return size

    def record_received(self, payload: Any, size: int | None = None) -> None:
        self._rpcs_in.value += 1
        self._bytes_in.value += (estimate_size(payload) if size is None
                                 else size)

    def record_multicast_sent(self, payload: Any,
                              size: int | None = None) -> int:
        """``size`` is given when one payload fans out to many members."""
        if size is None:
            size = estimate_size(payload)
        self._mcasts_out.value += 1
        self._bytes_out.value += size
        return size

    def record_multicast_received(self, payload: Any,
                                  size: int | None = None) -> None:
        self._mcasts_in.value += 1
        self._bytes_in.value += (estimate_size(payload) if size is None
                                 else size)


class ScopedMetrics:
    """A registry view that prefixes every instrument name.

    Lets N instances of the same component (e.g. the shards of the
    group-view database) share one registry while keeping their
    measurements apart: a shard handed ``registry.scoped("shard.n0.")``
    records ``server_db.get_server`` as ``shard.n0.server_db.get_server``.
    Instruments still live in the parent registry, so a whole-system
    snapshot sees every shard.  Counters and histograms are scoped:
    they are all the scoped components record.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def histogram(self, name: str) -> "Histogram":
        return self._registry.histogram(self._prefix + name)


class MetricsRegistry:
    """Creates-or-returns named instruments; snapshots the lot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def timeseries(self, name: str) -> TimeSeries:
        return self._series.setdefault(name, TimeSeries(name))

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every instrument, for reports and tests."""
        out: dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        for name, series in self._series.items():
            out[name] = list(series.samples)
        return out

    def counter_value(self, name: str) -> int:
        """Value of a counter, 0 if it was never touched."""
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def scoped(self, prefix: str) -> ScopedMetrics:
        """A view of this registry under a name prefix (e.g. per shard)."""
        return ScopedMetrics(self, prefix)

    def plane_traffic(self, host: str, plane: str) -> PlaneTraffic:
        """Per-plane traffic counters for ``host`` (e.g. client vs sync)."""
        return PlaneTraffic(self, host, plane)
