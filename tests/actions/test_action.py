"""Tests for atomic actions: nesting, 2PC over records, abort."""

import pytest

from repro.actions import (
    AbstractRecord,
    ActionId,
    ActionStatus,
    AtomicAction,
    CallbackRecord,
    InvalidActionState,
    Vote,
)


class SpyRecord(AbstractRecord):
    """Records the phases it sees; configurable vote."""

    def __init__(self, log, tag, vote=Vote.OK, order=100,
                 fail_prepare=False, fail_commit=False):
        self.log = log
        self.tag = tag
        self.vote = vote
        self.order = order
        self.fail_prepare = fail_prepare
        self.fail_commit = fail_commit

    def prepare(self, action):
        self.log.append(("prepare", self.tag))
        if self.fail_prepare:
            raise RuntimeError("prepare blew up")
        return self.vote
        yield

    def commit(self, action):
        self.log.append(("commit", self.tag))
        if self.fail_commit:
            raise RuntimeError("commit blew up")
        return
        yield

    def abort(self, action):
        self.log.append(("abort", self.tag))
        return
        yield


def drive(generator):
    """Run a commit/abort generator that never suspends."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator suspended unexpectedly")


def test_action_id_lineage():
    parent = ActionId((1,))
    child = ActionId((1, 2))
    stranger = ActionId((3,))
    assert parent.related(child) and child.related(parent)
    assert not parent.related(stranger)
    assert len(child.path) == 2
    assert child.top_level_serial == 1
    assert str(child) == "A1.2"


def test_top_level_commit_runs_both_phases_in_order():
    log = []
    action = AtomicAction()
    action.add_record(SpyRecord(log, "b", order=200))
    action.add_record(SpyRecord(log, "a", order=100))
    status = drive(action.commit())
    assert status is ActionStatus.COMMITTED
    assert log == [("prepare", "a"), ("prepare", "b"),
                   ("commit", "a"), ("commit", "b")]


def test_readonly_vote_skips_commit_phase():
    log = []
    action = AtomicAction()
    action.add_record(SpyRecord(log, "ro", vote=Vote.READONLY))
    action.add_record(SpyRecord(log, "rw"))
    drive(action.commit())
    assert ("commit", "ro") not in log
    assert ("commit", "rw") in log


def test_abort_vote_aborts_everything():
    log = []
    action = AtomicAction()
    action.add_record(SpyRecord(log, "good", order=100))
    action.add_record(SpyRecord(log, "veto", vote=Vote.ABORT, order=200))
    status = drive(action.commit())
    assert status is ActionStatus.ABORTED
    assert ("abort", "good") in log
    assert ("abort", "veto") in log
    assert ("commit", "good") not in log


def test_prepare_exception_counts_as_veto():
    log = []
    action = AtomicAction()
    action.add_record(SpyRecord(log, "boom", fail_prepare=True))
    status = drive(action.commit())
    assert status is ActionStatus.ABORTED


def test_begin_prepare_raising_aborts_with_every_records_abort_run():
    """The eager phase start can veto too: the group's other members
    have already started, and every record of the action is undone."""
    log = []

    class BadStart(SpyRecord):
        def begin_prepare(self, action):
            log.append(("begin_prepare", self.tag))
            raise RuntimeError("could not even send it")

    class Started(SpyRecord):
        def begin_prepare(self, action):
            log.append(("begin_prepare", self.tag))

    a = AtomicAction()
    a.add_record(Started(log, "first"))
    a.add_record(BadStart(log, "bad"))
    a.add_record(SpyRecord(log, "later", order=200))
    assert drive(a.commit()) is ActionStatus.ABORTED
    assert log == [("begin_prepare", "first"), ("begin_prepare", "bad"),
                   ("abort", "later"), ("abort", "first"), ("abort", "bad")]


def test_commit_phase_failure_is_heuristic_not_abort():
    log = []
    action = AtomicAction()
    bad = SpyRecord(log, "bad", fail_commit=True)
    action.add_record(bad)
    action.add_record(SpyRecord(log, "good"))
    status = drive(action.commit())
    assert status is ActionStatus.COMMITTED
    assert len(action.commit_failures) == 1
    assert action.commit_failures[0][0] is bad
    assert ("commit", "good") in log  # later records still commit


def test_abort_runs_records_in_reverse_order():
    log = []
    action = AtomicAction()
    action.add_record(SpyRecord(log, "first", order=100))
    action.add_record(SpyRecord(log, "second", order=200))
    drive(action.abort())
    assert log == [("abort", "second"), ("abort", "first")]


def test_nested_commit_merges_records_into_parent():
    log = []
    parent = AtomicAction()
    child = AtomicAction(parent=parent)
    child.add_record(SpyRecord(log, "from-child"))
    drive(child.commit())
    assert child.status is ActionStatus.COMMITTED
    assert log == []  # nothing ran yet
    drive(parent.commit())
    assert ("prepare", "from-child") in log
    assert ("commit", "from-child") in log


def test_nested_abort_undoes_only_child():
    log = []
    parent = AtomicAction()
    parent.add_record(SpyRecord(log, "parent-rec"))
    child = AtomicAction(parent=parent)
    child.add_record(SpyRecord(log, "child-rec"))
    drive(child.abort())
    assert log == [("abort", "child-rec")]
    drive(parent.commit())
    assert ("commit", "parent-rec") in log


def test_nested_top_level_action_is_independent():
    outer = AtomicAction()
    inner = AtomicAction(parent=outer, independent=True)
    assert inner.is_top_level
    assert inner.independent and inner.invoker is outer
    assert inner.id.path == (inner.id.top_level_serial,)
    log = []
    inner.add_record(SpyRecord(log, "inner"))
    drive(inner.commit())
    assert ("commit", "inner") in log  # committed NOW, not with outer
    drive(outer.abort())               # outer's fate doesn't undo inner
    assert ("abort", "inner") not in log


def test_child_ids_extend_parent_path():
    parent = AtomicAction()
    child = AtomicAction(parent=parent)
    grandchild = AtomicAction(parent=child)
    assert child.id.path[:1] == parent.id.path
    assert grandchild.id.path[:2] == child.id.path
    assert grandchild.id.related(parent.id)


def test_record_enlisted_during_prepare_still_votes_and_commits():
    """Late enlistment: a prepare-phase record may reach a resource the
    action never used (state distribution Excluding through a fresh
    replica shard), enlisting a new participant mid-phase-1.  The new
    record must still vote and run phase 2."""
    log = []
    action = AtomicAction()
    late = SpyRecord(log, "late", order=600)

    def enlist_late(a):
        a.add_record(late)
        return Vote.OK

    action.add_record(CallbackRecord(on_prepare=enlist_late,
                                     on_commit=lambda a: log.append(
                                         ("commit", "early")),
                                     order=100))
    status = drive(action.commit())
    assert status is ActionStatus.COMMITTED
    assert ("prepare", "late") in log and ("commit", "late") in log


def test_late_enlisted_record_can_still_veto():
    log = []
    action = AtomicAction()
    veto = SpyRecord(log, "veto", vote=Vote.ABORT)
    action.add_record(CallbackRecord(
        on_prepare=lambda a: a.add_record(veto) or Vote.OK))
    status = drive(action.commit())
    assert status is ActionStatus.ABORTED
    assert ("abort", "veto") in log


def test_cannot_add_record_after_termination():
    action = AtomicAction()
    drive(action.commit())
    with pytest.raises(InvalidActionState):
        action.add_record(CallbackRecord())


def test_cannot_commit_twice():
    action = AtomicAction()
    drive(action.commit())
    with pytest.raises(InvalidActionState):
        drive(action.commit())


def test_cannot_abort_after_commit():
    action = AtomicAction()
    drive(action.commit())
    with pytest.raises(InvalidActionState):
        drive(action.abort())


def test_nested_commit_into_terminated_parent_rejected():
    parent = AtomicAction()
    child = AtomicAction(parent=parent)
    drive(parent.commit())
    with pytest.raises(InvalidActionState):
        drive(child.commit())


def test_callback_record_votes():
    seen = []
    action = AtomicAction()
    action.add_record(CallbackRecord(
        on_prepare=lambda a: seen.append("p") or None,
        on_commit=lambda a: seen.append("c"),
        on_abort=lambda a: seen.append("a")))
    drive(action.commit())
    assert seen == ["p", "c"]


def test_callback_record_defaults_to_readonly_without_callbacks():
    action = AtomicAction()
    record = CallbackRecord()
    action.add_record(record)
    status = drive(action.commit())
    assert status is ActionStatus.COMMITTED


def test_run_local_helper():
    action = AtomicAction()
    assert action.run_local(action.commit()) is ActionStatus.COMMITTED
