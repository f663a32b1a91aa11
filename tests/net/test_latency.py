"""Tests for latency models."""

import pytest

from repro.net import FixedLatency


def test_fixed_latency_constant():
    model = FixedLatency(0.25)
    assert model.sample("a", "b") == 0.25
    assert model.typical == 0.25


def test_fixed_latency_rejects_negative():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)
