"""Tests for the event scheduler and virtual clock."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Scheduler, SimulationLimitExceeded
from repro.sim.events import Event, EventQueue


def test_clock_starts_at_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    s = Scheduler()
    fired = []
    s.schedule(2.0, fired.append, "b")
    s.schedule(1.0, fired.append, "a")
    s.schedule(3.0, fired.append, "c")
    s.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    s = Scheduler()
    times = []
    s.schedule(1.5, lambda: times.append(s.now))
    s.schedule(4.0, lambda: times.append(s.now))
    s.run()
    assert times == [1.5, 4.0]
    assert s.now == 4.0


def test_same_time_events_fire_in_scheduling_order():
    s = Scheduler()
    fired = []
    for tag in range(5):
        s.schedule(1.0, fired.append, tag)
    s.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    fired = []
    event = s.schedule(1.0, fired.append, "x")
    event.cancel()
    s.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    s = Scheduler()
    fired = []
    s.schedule(1.0, fired.append, "early")
    s.schedule(10.0, fired.append, "late")
    s.run(until=5.0)
    assert fired == ["early"]
    assert s.now == 5.0
    s.run()
    assert fired == ["early", "late"]


def test_cannot_schedule_in_the_past():
    s = Scheduler()
    s.schedule(1.0, lambda: None)
    s.run()
    with pytest.raises(ValueError):
        s.schedule_at(0.5, lambda: None)


def test_max_events_budget_raises():
    s = Scheduler()

    def reschedule():
        s.schedule(0.1, reschedule)

    s.schedule(0.1, reschedule)
    with pytest.raises(SimulationLimitExceeded):
        s.run(max_events=100)


def test_nested_scheduling_from_event():
    s = Scheduler()
    fired = []
    s.schedule(1.0, lambda: s.schedule(1.0, fired.append, "inner"))
    s.run()
    assert fired == ["inner"]
    assert s.now == 2.0


def test_call_soon_runs_at_current_time():
    s = Scheduler()
    times = []
    s.schedule(3.0, lambda: s.call_soon(lambda: times.append(s.now)))
    s.run()
    assert times == [3.0]


def test_events_fired_counter():
    s = Scheduler()
    for _ in range(4):
        s.schedule(1.0, lambda: None)
    s.run()
    assert s.events_fired == 4


def test_run_until_settled_returns_result():
    s = Scheduler()

    def body():
        yield 1.0
        return 42

    process = s.spawn(body())
    assert s.run_until_settled(process) == 42


def test_run_until_settled_raises_on_drained_queue():
    from repro.sim import Future
    s = Scheduler()
    never = Future("never")
    with pytest.raises(RuntimeError, match="drained"):
        s.run_until_settled(never)


# The scheduler pushes and pops its queue's heap itself (one frame per
# event instead of three); the queue's own push/pop remain the
# reference.  A step schedules one of the three ways, cancels the i-th
# event scheduled so far, fires one event, or schedules a burst and
# cancels most of it (crossing the compaction threshold).
scheduler_steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 0.5, 2.5])),
        st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 1.0, 4.0])),
        st.tuples(st.just("call_soon"), st.none()),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("burst"), st.integers(min_value=70, max_value=120))),
    max_size=60)


@given(scheduler_steps)
def test_inlined_push_and_pop_account_like_the_event_queue(steps):
    s = Scheduler()
    reference = EventQueue()
    events: list[tuple[Event, Event]] = []  # (scheduled, reference twin)
    fired: list[int] = []

    def scheduled(event):
        assert event._queue is s._queue and not event.cancelled
        twin = Event(event.time, event.seq, fired.append, (event.seq,))
        reference.push(twin)
        events.append((event, twin))

    def cancel(pair):
        for event in pair:
            event.cancel()

    def agree():
        assert len(s._queue) == len(reference)
        assert bool(s._queue) == bool(reference)
        assert s._queue.peek_time() == reference.peek_time()
        assert s._queue.compactions == reference.compactions

    for step, arg in steps:
        if step == "schedule":
            scheduled(s.schedule(arg, fired.append, "fired"))
        elif step == "schedule_at":
            scheduled(s.schedule_at(s.now + arg, fired.append, "fired"))
        elif step == "call_soon":
            event = s.call_soon(fired.append, "fired")
            assert event.time == s.now
            scheduled(event)
        elif step == "burst":
            start = len(events)
            for i in range(arg):
                scheduled(s.schedule(float(i % 3), fired.append, "fired"))
            for pair in events[start:start + arg - 5]:
                cancel(pair)
            assert s._queue.compactions >= 1
        elif step == "cancel" and events:
            cancel(events[arg % len(events)])
        elif step == "step":
            expected = reference.pop()
            before = s.events_fired
            assert s.step() is (expected is not None)
            if expected is not None:
                expected.fn(*expected.args)
                assert fired[-2:] == ["fired", expected.seq]
                assert s.now == expected.time
                assert s.events_fired == before + 1
                fired_event = next(e for e, twin in events if twin is expected)
                assert fired_event._queue is None
                fired_event.cancel()  # late: must not touch the count
        agree()
    while s.step():
        reference.pop()
        agree()
    assert reference.pop() is None and len(s._queue) == 0
