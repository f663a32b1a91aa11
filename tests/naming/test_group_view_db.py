"""Tests for the combined group-view database."""

import pytest

from repro.actions import AtomicAction
from repro.actions.errors import LockRefused
from repro.naming import GroupViewDatabase
from repro.storage import Uid

from tests.conftest import lock_holders


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

    (sv_owner, _mode), = lock_holders(db.server_db.locks, ("sv", uid))
    (st_owner, _mode), = lock_holders(db.state_db.locks, ("st", uid))
    assert sv_owner.path == nested.id.path
    assert st_owner.path == client.id.path

    db.abort(nested.id.path)  # releases the nested action's lock only
    assert not db.server_db.locks.is_locked(("sv", uid))
    assert [owner.path for owner, _ in
            lock_holders(db.state_db.locks, ("st", uid))] == [client.id.path]


def test_get_binding_refused_on_st_takes_no_sv_lock():
    db = make_db()
    uid = Uid.parse("sys:1")
    includer, client = AtomicAction(), AtomicAction()
    db.include(includer.id.path, "sys:1", "delta")  # write lock on St
    nested = AtomicAction(parent=client)
    with pytest.raises(LockRefused):
        db.get_binding(nested.id.path, "sys:1", client.id.path)
    assert not db.server_db.locks.is_locked(("sv", uid))


# -- the one lookup of the use-list schemes (figures 7 and 8) ---------------------


def test_get_binding_with_uses_returns_use_lists_and_view_in_one_call():
    db = make_db()
    first, client = AtomicAction(), AtomicAction()
    snapshot, view = db.get_binding_with_uses(first.id.path, "sys:1",
                                              client.id.path)
    assert snapshot.hosts == ("alpha", "beta") and snapshot.all_uses_empty
    assert view == ["beta", "gamma"]
    assert db.metrics.counter_value("server_db.get_server") == 1
    assert db.metrics.counter_value("state_db.get_view") == 1


def test_get_binding_with_uses_gives_sv_to_the_bind_action_and_st_to_the_client():
    """Two top-level owners: ``first`` takes the INCREMENT lock on
    ``Sv`` (it goes on to Increment), the client action read-locks
    ``St`` to its own end -- and ``first``'s commit releases only the
    former."""
    from repro.actions.locks import LockMode

    db = make_db()
    uid = Uid.parse("sys:1")
    first, client = AtomicAction(), AtomicAction()
    db.get_binding_with_uses(first.id.path, "sys:1", client.id.path)

    assert [(owner.path, mode) for owner, mode in
            lock_holders(db.server_db.locks, ("sv", uid))] == [
                (first.id.path, LockMode.INCREMENT)]
    assert [(owner.path, mode) for owner, mode in
            lock_holders(db.state_db.locks, ("st", uid))] == [
                (client.id.path, LockMode.READ)]

    db.increment(first.id.path, "cn", "sys:1", ["alpha"])
    db.commit(first.id.path)
    assert not db.server_db.locks.is_locked(("sv", uid))
    assert [owner.path for owner, _ in
            lock_holders(db.state_db.locks, ("st", uid))] == [client.id.path]
    # The client action only read here: its vote is its lock release.
    assert db.prepare(client.id.path) == "readonly"
    assert not db.state_db.locks.is_locked(("st", uid))


def test_get_binding_with_uses_refused_on_st_takes_no_sv_lock():
    db = make_db()
    uid = Uid.parse("sys:1")
    includer, first, client = AtomicAction(), AtomicAction(), AtomicAction()
    db.include(includer.id.path, "sys:1", "delta")  # write lock on St
    with pytest.raises(LockRefused):
        db.get_binding_with_uses(first.id.path, "sys:1", client.id.path)
    assert not db.server_db.locks.is_locked(("sv", uid))


# -- a write's acknowledgement is the vote: what ``commit`` must then tolerate ------


def test_commit_after_a_nested_write_was_aborted_is_a_pure_lock_release():
    """A participant that acknowledged a write is sent ``commit`` with
    no ``prepare`` before it, even when the nested action that wrote
    has since aborted: nothing of it is left to make permanent, and the
    commit only releases what the root still holds."""
    db = make_db()
    uid = Uid.parse("sys:1")
    root = AtomicAction()
    nested = AtomicAction(parent=root)
    db.get_view(root.id.path, "sys:1")
    db.increment(nested.id.path, "cn", "sys:1", ["alpha"])
    db.abort(nested.id.path)
    assert not db.server_db._undo

    db.commit(root.id.path)
    assert db.is_quiescent("sys:1")  # the Increment did not survive
    assert not db.state_db.locks.is_locked(("st", uid))
    assert not db.server_db.locks.is_locked(("sv", uid))


def test_read_entry_versioned_answers_locked_while_a_decrement_is_uncommitted():
    """A committed-snapshot read never shares with a counter move: the
    use lists it would return are not committed state yet."""
    db = make_db()
    setup = AtomicAction()
    db.increment(setup.id.path, "cn", "sys:1", ["alpha"])
    db.commit(setup.id.path)
    unbind = AtomicAction()
    db.decrement(unbind.id.path, "cn", "sys:1", ["alpha"])
    assert db.read_entry_versioned("sys:1") == "locked"
    db.commit(unbind.id.path)
    sv_hosts, uses, _st, _versions, _mode = db.read_entry_versioned("sys:1")
    assert uses == {"alpha": {}, "beta": {}}
