"""Tests for futures."""

import pytest

from repro.sim import Future


def test_future_lifecycle():
    f = Future("x")
    assert not f.done
    f.resolve(5)
    assert f.done and not f.failed
    assert f.result() == 5


def test_future_failure():
    f = Future()
    error = ValueError("boom")
    f.fail(error)
    assert f.failed
    with pytest.raises(ValueError, match="boom"):
        f.result()
    assert f.exception() is error


def test_double_settle_raises():
    f = Future()
    f.resolve(1)
    with pytest.raises(RuntimeError):
        f.resolve(2)
    with pytest.raises(RuntimeError):
        f.fail(ValueError())


def test_try_resolve_and_try_fail():
    f = Future()
    assert f.try_resolve(1) is True
    assert f.try_resolve(2) is False
    assert f.try_fail(ValueError()) is False
    assert f.result() == 1


def test_result_on_pending_raises():
    with pytest.raises(RuntimeError, match="pending"):
        Future("p").result()


def test_callback_after_settle_runs_immediately():
    f = Future()
    f.resolve("v")
    seen = []
    f.add_callback(lambda fut: seen.append(fut.result()))
    assert seen == ["v"]


def test_callbacks_run_once_in_order():
    f = Future()
    seen = []
    f.add_callback(lambda _: seen.append(1))
    f.add_callback(lambda _: seen.append(2))
    f.resolve(None)
    assert seen == [1, 2]
