"""Tests for latency models."""

import pytest

from repro.net import FixedLatency, UniformLatency
from repro.sim import SeededRng


def test_fixed_latency_constant():
    model = FixedLatency(0.25)
    assert model.sample("a", "b") == 0.25
    assert model.typical == 0.25


def test_fixed_latency_rejects_negative():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)


def test_uniform_latency_bounds():
    model = UniformLatency(SeededRng(1), 0.01, 0.02)
    for _ in range(200):
        assert 0.01 <= model.sample("a", "b") <= 0.02
    assert model.typical == 0.02


def test_uniform_latency_validates_range():
    with pytest.raises(ValueError):
        UniformLatency(SeededRng(1), 0.02, 0.01)


def test_uniform_latency_deterministic_per_seed():
    a = UniformLatency(SeededRng(7), 0.0, 1.0)
    b = UniformLatency(SeededRng(7), 0.0, 1.0)
    assert [a.sample("x", "y") for _ in range(5)] == [
        b.sample("x", "y") for _ in range(5)]
