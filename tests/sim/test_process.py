"""Tests for generator-based processes."""

import pytest

from repro.sim import Future, ProcessKilled, Scheduler, Timeout


def test_process_sleeps_and_returns():
    s = Scheduler()

    def body():
        yield Timeout(2.0)
        return "done"

    p = s.spawn(body())
    s.run()
    assert p.result() == "done"
    assert s.now == 2.0


def test_bare_number_yield_means_sleep():
    s = Scheduler()

    def body():
        yield 1.5
        yield 1  # int also accepted
        return s.now

    p = s.spawn(body())
    s.run()
    assert p.result() == 2.5


def test_process_waits_on_future():
    s = Scheduler()
    gate = Future("gate")

    def body():
        value = yield gate
        return value * 2

    p = s.spawn(body())
    s.schedule(3.0, gate.resolve, 21)
    s.run()
    assert p.result() == 42


def test_failed_future_is_thrown_into_process():
    s = Scheduler()
    gate = Future()

    def body():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    p = s.spawn(body())
    s.schedule(1.0, gate.fail, ValueError("bang"))
    s.run()
    assert p.result() == "caught bang"


def test_escaped_exception_fails_the_process():
    s = Scheduler()

    def body():
        yield Timeout(1.0)
        raise RuntimeError("oops")

    p = s.spawn(body())
    s.run()
    assert p.failed
    with pytest.raises(RuntimeError, match="oops"):
        p.result()


def test_process_waits_on_another_process():
    s = Scheduler()

    def child():
        yield Timeout(2.0)
        return "child-value"

    def parent():
        value = yield s.spawn(child())
        return f"got {value}"

    p = s.spawn(parent())
    s.run()
    assert p.result() == "got child-value"


def test_kill_while_sleeping():
    s = Scheduler()
    progress = []

    def body():
        progress.append("start")
        yield Timeout(10.0)
        progress.append("never")

    p = s.spawn(body())
    s.schedule(1.0, p.kill)
    s.run()
    assert p.failed
    assert isinstance(p.exception(), ProcessKilled)
    assert progress == ["start"]
    assert s.now < 10.0


def test_kill_lets_generator_clean_up():
    s = Scheduler()
    cleaned = []

    def body():
        try:
            yield Timeout(10.0)
        except ProcessKilled:
            cleaned.append(True)
            raise

    p = s.spawn(body())
    s.schedule(1.0, p.kill)
    s.run()
    assert cleaned == [True]
    assert p.failed


def test_swallowing_kill_still_terminates():
    s = Scheduler()

    def body():
        while True:
            try:
                yield Timeout(1.0)
            except ProcessKilled:
                pass  # naughty: tries to survive

    p = s.spawn(body())
    s.schedule(2.5, p.kill)
    s.run(until=20.0)
    assert p.done and p.failed


def test_a_process_killed_from_its_own_step_ends_killed():
    """A running generator cannot be thrown into; the kill still ends
    the process with ProcessKilled, not the kernel's ValueError."""
    s = Scheduler()
    holder = []

    def body():
        yield 0.5
        holder[0].kill("itself")
        yield 0.5

    holder.append(s.spawn(body()))
    s.run()
    assert isinstance(holder[0].exception(), ProcessKilled)


def test_kill_terminated_process_is_noop():
    s = Scheduler()

    def body():
        yield 0.5
        return 1

    p = s.spawn(body())
    s.run()
    p.kill()
    assert p.result() == 1


def test_yielding_garbage_fails_process():
    s = Scheduler()

    def body():
        yield "not a future"

    p = s.spawn(body())
    s.run()
    assert p.failed
    assert isinstance(p.exception(), TypeError)


def test_stale_future_wakeup_after_kill_is_ignored():
    s = Scheduler()
    gate = Future()

    def body():
        yield gate

    p = s.spawn(body())
    s.schedule(1.0, p.kill)
    s.schedule(2.0, gate.resolve, "late")
    s.run()
    assert p.failed
    assert isinstance(p.exception(), ProcessKilled)
