"""Parameter sweeps, summary statistics, and plain-text result tables.

Every benchmark regenerates its figure as a :class:`Table` printed to
stdout (``pytest benchmarks/bench_<name>.py -s``); the recorded numbers
live in ``benchmarks/results/BENCH_*.json``.  The canned scenarios the
scale-out benchmarks run are declared in
:mod:`repro.workload.scenarios` and executed by the one runner in
:mod:`repro.workload.scenario`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence


def sweep(values: Iterable[Any], run: Callable[[Any], dict[str, Any]],
          label: str = "param") -> list[dict[str, Any]]:
    """Run ``run(value)`` for each value; collect rows tagged by param."""
    rows = []
    for value in values:
        row = {label: value}
        row.update(run(value))
        rows.append(row)
    return rows


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (nearest-rank)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def mean_and_spread(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for fewer than 2 points)."""
    if not values:
        return math.nan, math.nan
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)


class Table:
    """A fixed-column plain-text table."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append([_format(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"\n== {self.title} =="]
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())


def _format(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
