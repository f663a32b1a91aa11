"""Tests for the combined group-view database."""

import pytest

from repro.actions import AtomicAction
from repro.actions.errors import LockRefused
from repro.naming import GroupViewDatabase
from repro.storage import Uid


def make_db():
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, "sys:1", ["alpha", "beta"], ["beta", "gamma"])
    db.commit(boot.id.path)
    return db


def test_define_object_populates_both_halves():
    db = make_db()
    action = AtomicAction()
    assert db.get_binding(action.id.path, "sys:1", action.id.path) == (
        ["alpha", "beta"], ["beta", "gamma"])
    assert db.knows("sys:1")
    assert not db.knows("sys:9")


def test_sv_and_st_entries_independently_locked():
    db = make_db()
    a, b = AtomicAction(), AtomicAction()
    db.insert(a.id.path, "sys:1", "delta")      # write lock on ("sv", uid)
    db.include(b.id.path, "sys:1", "delta")     # write lock on ("st", uid): ok


def test_single_commit_spans_both_halves():
    db = make_db()
    action = AtomicAction()
    db.insert(action.id.path, "sys:1", "delta")
    db.exclude(action.id.path, [("sys:1", ["gamma"])])
    assert db.prepare(action.id.path) == "ok"
    db.commit(action.id.path)
    check = AtomicAction()
    assert db.get_binding(check.id.path, "sys:1", check.id.path) == (
        ["alpha", "beta", "delta"], ["beta"])


def test_single_abort_spans_both_halves():
    db = make_db()
    action = AtomicAction()
    db.insert(action.id.path, "sys:1", "delta")
    db.exclude(action.id.path, [("sys:1", ["gamma"])])
    db.abort(action.id.path)
    check = AtomicAction()
    assert db.get_binding(check.id.path, "sys:1", check.id.path) == (
        ["alpha", "beta"], ["beta", "gamma"])


def test_prepare_readonly_when_nothing_written():
    db = make_db()
    action = AtomicAction()
    db.get_binding(action.id.path, "sys:1", action.id.path)
    assert db.prepare(action.id.path) == "readonly"


def test_ping():
    assert make_db().ping() == "pong"


def test_persistence_roundtrip():
    db = make_db()
    user = AtomicAction()
    db.increment(user.id.path, "cn", "sys:1", ["alpha"])
    db.commit(user.id.path)
    buffer = db.save_state()
    restored = GroupViewDatabase.restore_state(buffer)
    check = AtomicAction()
    assert restored.get_binding(check.id.path, "sys:1", check.id.path) == (
        ["alpha", "beta"], ["beta", "gamma"])
    snapshot = restored.get_server_with_uses(check.id.path, "sys:1")
    assert snapshot.uses["alpha"] == {"cn": 1}


def test_quiescence_via_combined_interface():
    db = make_db()
    assert db.is_quiescent("sys:1")
    user = AtomicAction()
    db.increment(user.id.path, "cn", "sys:1", ["alpha"])
    db.commit(user.id.path)
    assert not db.is_quiescent("sys:1")


def test_get_binding_returns_both_halves_in_one_call():
    db = make_db()
    action = AtomicAction()
    assert db.get_binding(action.id.path, "sys:1", action.id.path) == (
        ["alpha", "beta"], ["beta", "gamma"])
    assert db.metrics.counter_value("server_db.get_server") == 1
    assert db.metrics.counter_value("state_db.get_view") == 1


def test_get_binding_splits_lock_ownership_between_nested_and_client_action():
    """GetServer runs nested (figure 6) but the ``St`` read lock is the
    client action's: the commit-time Exclude promotes *that* lock, so it
    must be refused or granted exactly as if the client had read ``St``
    itself.  Only the ``Sv`` lock belongs to the nested action."""
    db = make_db()
    uid = Uid.parse("sys:1")
    client = AtomicAction()
    nested = AtomicAction(parent=client)
    db.get_binding(nested.id.path, "sys:1", client.id.path)

    (sv_owner, _mode), = db.server_db.locks.holders_of(("sv", uid))
    (st_owner, _mode), = db.state_db.locks.holders_of(("st", uid))
    assert sv_owner.path == nested.id.path
    assert st_owner.path == client.id.path

    db.abort(nested.id.path)  # releases the nested action's lock only
    assert not db.server_db.locks.is_locked(("sv", uid))
    assert [owner.path for owner, _ in
            db.state_db.locks.holders_of(("st", uid))] == [client.id.path]


def test_get_binding_refused_on_st_takes_no_sv_lock():
    db = make_db()
    uid = Uid.parse("sys:1")
    includer, client = AtomicAction(), AtomicAction()
    db.include(includer.id.path, "sys:1", "delta")  # write lock on St
    nested = AtomicAction(parent=client)
    with pytest.raises(LockRefused):
        db.get_binding(nested.id.path, "sys:1", client.id.path)
    assert not db.server_db.locks.is_locked(("sv", uid))
