"""Tests for sweep helpers and tables."""

import math

import pytest

from repro.workload import Table, mean_and_spread, sweep
from repro.workload.sweep import percentile


def test_percentile_nearest_rank():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert percentile(values, 0.50) == 0.5
    assert percentile(values, 0.95) == 1.0
    assert percentile(values, 0.0) == 0.1
    assert math.isnan(percentile([], 0.5))


def test_sweep_collects_tagged_rows():
    rows = sweep([1, 2, 3], lambda v: {"square": v * v}, label="n")
    assert rows == [{"n": 1, "square": 1}, {"n": 2, "square": 4},
                    {"n": 3, "square": 9}]


def test_mean_and_spread():
    mean, spread = mean_and_spread([2.0, 4.0, 6.0])
    assert mean == 4.0
    assert spread == pytest.approx(2.0)


def test_mean_and_spread_degenerate():
    mean, spread = mean_and_spread([5.0])
    assert (mean, spread) == (5.0, 0.0)
    mean, _ = mean_and_spread([])
    assert math.isnan(mean)


def test_table_renders_aligned():
    table = Table("Demo", ["name", "value"])
    table.add_row("short", 1.5)
    table.add_row("much-longer-name", 22)
    text = table.render()
    assert "Demo" in text
    assert "1.500" in text
    assert "much-longer-name" in text
    lines = text.splitlines()
    header_line = next(l for l in lines if l.startswith("name"))
    assert "value" in header_line


def test_table_rejects_wrong_arity():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)
