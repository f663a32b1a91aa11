"""Tests for the event queue's live-event accounting.

``__len__``/``__bool__`` sit on the scheduler's hot path, so they are
backed by a counter maintained by push/pop/cancel instead of a heap
scan; these tests pin the counter against every lifecycle edge.
"""

from hypothesis import given, strategies as st

from repro.sim.events import Event, EventQueue


def make_event(time, seq):
    return Event(time, seq, lambda: None, ())


def test_empty_queue():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert q.pop() is None
    assert q.peek_time() is None


def test_len_tracks_pushes_and_pops():
    q = EventQueue()
    for i in range(5):
        q.push(make_event(float(i), i))
    assert len(q) == 5 and q
    q.pop()
    q.pop()
    assert len(q) == 3


def test_cancel_updates_len_immediately():
    q = EventQueue()
    events = [make_event(float(i), i) for i in range(4)]
    for event in events:
        q.push(event)
    events[1].cancel()
    events[3].cancel()
    assert len(q) == 2
    assert q  # still live events


def test_cancelled_events_never_pop():
    q = EventQueue()
    first, second = make_event(1.0, 1), make_event(2.0, 2)
    q.push(first)
    q.push(second)
    first.cancel()
    assert q.pop() is second
    assert len(q) == 0 and not q


def test_cancel_is_idempotent():
    q = EventQueue()
    event = make_event(1.0, 1)
    q.push(event)
    q.push(make_event(2.0, 2))
    event.cancel()
    event.cancel()
    event.cancel()
    assert len(q) == 1


def test_cancel_after_fire_does_not_corrupt_count():
    """An RPC reply cancelling its already-fired timeout timer must not
    decrement the live count a second time."""
    q = EventQueue()
    timer = make_event(1.0, 1)
    q.push(timer)
    q.push(make_event(2.0, 2))
    fired = q.pop()
    assert fired is timer
    timer.cancel()  # late cancel of a fired event
    assert len(q) == 1
    assert q.pop() is not None
    assert len(q) == 0 and not q


def test_peek_time_skips_cancelled_without_changing_len():
    q = EventQueue()
    head, tail = make_event(1.0, 1), make_event(2.0, 2)
    q.push(head)
    q.push(tail)
    head.cancel()
    assert q.peek_time() == 2.0
    assert len(q) == 1


def test_all_cancelled_is_falsy():
    q = EventQueue()
    events = [make_event(float(i), i) for i in range(3)]
    for event in events:
        q.push(event)
    for event in events:
        event.cancel()
    assert len(q) == 0
    assert not q
    assert q.peek_time() is None
    assert q.pop() is None


def test_compaction_triggers_when_dead_outnumber_live():
    """Mass cancellation must rebuild the heap instead of holding an
    unbounded tail of tombstones (the every-RPC-cancels-its-timeout
    pattern of a long sweep)."""
    q = EventQueue()
    events = [make_event(float(i), i) for i in range(128)]
    for event in events:
        q.push(event)
    for event in events[:70]:
        event.cancel()
    assert q.compactions >= 1
    assert len(q) == 58
    # The rebuild happened at the threshold crossing; only the handful
    # of cancels after it may linger as tombstones.
    assert len(q._heap) < 70


def test_small_queues_never_compact():
    q = EventQueue()
    events = [make_event(float(i), i) for i in range(32)]
    for event in events:
        q.push(event)
    for event in events:
        event.cancel()
    assert q.compactions == 0
    assert len(q) == 0


def test_compaction_preserves_pop_order():
    q = EventQueue()
    events = [make_event(float(i % 7), i) for i in range(200)]
    for event in events:
        q.push(event)
    survivors = []
    for i, event in enumerate(events):
        if i % 3 == 0:
            survivors.append(event)
        else:
            event.cancel()
    assert q.compactions >= 1
    expected = sorted(survivors, key=lambda e: (e.time, e.seq))
    popped = []
    while q:
        popped.append(q.pop())
    assert popped == expected


def test_cancel_after_compaction_is_harmless():
    """An event dropped by a rebuild can still be cancelled late."""
    q = EventQueue()
    events = [make_event(float(i), i) for i in range(128)]
    for event in events:
        q.push(event)
    for event in events[:100]:
        event.cancel()
    assert q.compactions >= 1
    events[0].cancel()  # idempotent, already gone from the heap
    assert len(q) == 28


# A step is a push at one of a few times (so ties are common), a cancel
# of the i-th event pushed so far, or a pop; the bursts cross
# COMPACT_MIN_SIZE with most of the heap cancelled.
queue_steps = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.5])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("burst"), st.integers(min_value=70, max_value=120))),
    max_size=60)


@given(queue_steps)
def test_pops_are_the_live_events_in_time_then_seq_order(steps):
    q = EventQueue()
    pushed: list[Event] = []
    live: set[int] = set()  # seqs queued and not cancelled or popped

    def push(time):
        event = make_event(time, len(pushed))
        pushed.append(event)
        live.add(event.seq)
        q.push(event)

    def check_pop():
        popped = q.pop()
        if not live:
            assert popped is None
            return
        assert (popped.time, popped.seq) == min(
            (pushed[seq].time, seq) for seq in live)
        live.remove(popped.seq)

    for step, arg in steps:
        if step == "push":
            push(arg)
        elif step == "burst":
            start = len(pushed)
            for i in range(arg):
                push(float(i % 3))
            for event in pushed[start:start + arg - 5]:
                event.cancel()
                live.discard(event.seq)
            assert q.compactions >= 1
        elif step == "cancel" and pushed:
            event = pushed[arg % len(pushed)]
            event.cancel()
            live.discard(event.seq)
        elif step == "pop":
            check_pop()
        assert len(q) == len(live)
    while live:
        check_pop()
    assert q.pop() is None and not q
