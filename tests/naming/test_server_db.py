"""Tests for the Object Server database (paper section 4.1)."""

import pytest

from repro.actions import ActionId, AtomicAction, LockRefused, PromotionRefused
from repro.naming import NotQuiescent, ObjectServerDatabase, UnknownObject
from repro.storage import Uid

UID = Uid("sys", 1)


def make_db(hosts=("alpha", "beta")):
    db = ObjectServerDatabase()
    boot = AtomicAction()
    db.define(boot.id.path, UID, list(hosts))
    db.commit(boot.id.path)
    return db


def test_get_server_returns_hosts_copy():
    db = make_db()
    action = AtomicAction()
    hosts = db.get_server(action.id.path, UID)
    assert hosts == ["alpha", "beta"]
    hosts.append("evil")
    assert db.get_server(action.id.path, UID) == ["alpha", "beta"]


def test_get_server_unknown_object():
    db = make_db()
    with pytest.raises(UnknownObject):
        db.get_server(AtomicAction().id.path, Uid("sys", 99))


def test_get_server_takes_read_lock_shared():
    db = make_db()
    a1, a2 = AtomicAction(), AtomicAction()
    db.get_server(a1.id.path, UID)
    db.get_server(a2.id.path, UID)  # no conflict


def test_insert_needs_write_lock():
    db = make_db()
    reader = AtomicAction()
    db.get_server(reader.id.path, UID)
    writer = AtomicAction()
    with pytest.raises(LockRefused):
        db.insert(writer.id.path, UID, "gamma")


def test_insert_and_undo_on_abort():
    db = make_db()
    action = AtomicAction()
    db.insert(action.id.path, UID, "gamma")
    assert db.get_server(action.id.path, UID) == ["alpha", "beta", "gamma"]
    db.abort(action.id.path)
    check = AtomicAction()
    assert db.get_server(check.id.path, UID) == ["alpha", "beta"]


def test_insert_existing_host_idempotent():
    db = make_db()
    action = AtomicAction()
    db.insert(action.id.path, UID, "alpha")
    assert db.get_server(action.id.path, UID) == ["alpha", "beta"]
    db.commit(action.id.path)


def test_insert_refused_when_use_lists_nonempty():
    """Paper 4.1.2: Insert succeeds only when the object is quiescent."""
    db = make_db()
    binder = AtomicAction()
    db.increment(binder.id.path, "client-n", UID, ["alpha"])
    db.commit(binder.id.path)
    recoverer = AtomicAction()
    with pytest.raises(NotQuiescent):
        db.insert(recoverer.id.path, UID, "alpha")


def test_remove_and_undo_restores_position_and_uses():
    db = make_db(("alpha", "beta", "gamma"))
    setup = AtomicAction()
    db.increment(setup.id.path, "cn", UID, ["beta"])
    db.commit(setup.id.path)
    action = AtomicAction()
    db.remove(action.id.path, UID, "beta")
    assert db.get_server(action.id.path, UID) == ["alpha", "gamma"]
    db.abort(action.id.path)
    check = AtomicAction()
    snapshot = db.get_server_with_uses(check.id.path, UID)
    assert snapshot.hosts == ("alpha", "beta", "gamma")
    assert snapshot.uses["beta"] == {"cn": 1}


def test_remove_missing_host_is_noop():
    db = make_db()
    action = AtomicAction()
    db.remove(action.id.path, UID, "ghost")
    db.commit(action.id.path)


def test_increment_decrement_counters():
    db = make_db()
    a = AtomicAction()
    db.increment(a.id.path, "cn", UID, ["alpha", "beta"])
    db.increment(a.id.path, "cn", UID, ["alpha"])
    db.commit(a.id.path)
    b = AtomicAction()
    snapshot = db.get_server_with_uses(b.id.path, UID)
    assert snapshot.uses["alpha"] == {"cn": 2}
    assert snapshot.uses["beta"] == {"cn": 1}
    db.decrement(b.id.path, "cn", UID, ["alpha", "beta"])
    db.commit(b.id.path)
    c = AtomicAction()
    snapshot = db.get_server_with_uses(c.id.path, UID)
    assert snapshot.uses["alpha"] == {"cn": 1}
    assert snapshot.uses["beta"] == {}


def test_increment_unknown_host_raises():
    db = make_db()
    action = AtomicAction()
    with pytest.raises(UnknownObject):
        db.increment(action.id.path, "cn", UID, ["ghost"])


def test_increment_undone_on_abort():
    db = make_db()
    action = AtomicAction()
    db.increment(action.id.path, "cn", UID, ["alpha"])
    db.abort(action.id.path)
    check = AtomicAction()
    assert db.get_server_with_uses(check.id.path, UID).all_uses_empty


def test_decrement_below_zero_tolerated():
    db = make_db()
    action = AtomicAction()
    db.decrement(action.id.path, "cn", UID, ["alpha"])
    db.commit(action.id.path)  # no crash; cleanup may race decrements


def test_quiescence_definition():
    db = make_db()
    assert db.is_quiescent(UID)
    reader = AtomicAction()
    db.get_server(reader.id.path, UID)
    assert not db.is_quiescent(UID)  # lock held
    db.commit(reader.id.path)
    assert db.is_quiescent(UID)
    user = AtomicAction()
    db.increment(user.id.path, "cn", UID, ["alpha"])
    db.commit(user.id.path)
    assert not db.is_quiescent(UID)  # use list non-empty


def test_purge_client_removes_all_counters():
    db = make_db()
    setup = AtomicAction()
    db.increment(setup.id.path, "dead-client", UID, ["alpha", "beta"])
    db.increment(setup.id.path, "live-client", UID, ["alpha"])
    db.commit(setup.id.path)
    cleaner = AtomicAction()
    purged = db.purge_client(cleaner.id.path, "dead-client")
    db.commit(cleaner.id.path)
    assert purged == [UID]
    check = AtomicAction()
    snapshot = db.get_server_with_uses(check.id.path, UID)
    assert snapshot.uses["alpha"] == {"live-client": 1}
    assert snapshot.uses["beta"] == {}


def test_purge_client_undo_on_abort():
    db = make_db()
    setup = AtomicAction()
    db.increment(setup.id.path, "cn", UID, ["alpha"])
    db.commit(setup.id.path)
    cleaner = AtomicAction()
    db.purge_client(cleaner.id.path, "cn")
    db.abort(cleaner.id.path)
    check = AtomicAction()
    assert db.get_server_with_uses(check.id.path, UID).uses["alpha"] == {"cn": 1}


def test_purge_client_skips_locked_entries():
    db = make_db()
    setup = AtomicAction()
    db.increment(setup.id.path, "cn", UID, ["alpha"])
    db.commit(setup.id.path)
    holder = AtomicAction()
    db.get_server(holder.id.path, UID)  # read lock blocks purge's write lock
    cleaner = AtomicAction()
    assert db.purge_client(cleaner.id.path, "cn") == []


def test_nested_action_lock_inherited_until_top_commit():
    """Figure 6: GetServer in a nested action; lock lives to top end."""
    db = make_db()
    top = AtomicAction()
    nested = AtomicAction(parent=top)
    db.get_server(nested.id.path, UID)
    # Nested 'commits' (merge) -- db keeps the lock under the child id,
    # which blocks writers because it is still an uncommitted lineage.
    writer = AtomicAction()
    with pytest.raises(LockRefused):
        db.insert(writer.id.path, UID, "gamma")
    db.commit(top.id.path)  # top-level commit releases the whole tree
    writer2 = AtomicAction()
    db.insert(writer2.id.path, UID, "gamma")


def test_prepare_votes():
    db = make_db()
    reader = AtomicAction()
    db.get_server(reader.id.path, UID)
    assert db.prepare(reader.id.path) == "readonly"
    writer = AtomicAction()
    db.commit(reader.id.path)
    db.insert(writer.id.path, UID, "gamma")
    assert db.prepare(writer.id.path) == "ok"


def test_snapshot_helpers():
    db = make_db()
    setup = AtomicAction()
    db.increment(setup.id.path, "cn", UID, ["beta"])
    db.commit(setup.id.path)
    check = AtomicAction()
    snapshot = db.get_server_with_uses(check.id.path, UID)
    assert not snapshot.all_uses_empty
    assert snapshot.used_hosts() == ["beta"]
    assert snapshot.uses["beta"] == {"cn": 1}
    assert not snapshot.uses["alpha"]


def test_purge_client_abort_restores_every_entry():
    """Regression: the purge undo closures must bind each entry's UID
    at record time — aborting a purge spanning several entries has to
    restore each counter onto its own entry, not pile them all onto
    the last entry iterated."""
    db = ObjectServerDatabase()
    boot = AtomicAction()
    uid_a, uid_b = Uid("sys", 10), Uid("sys", 20)
    db.define(boot.id.path, uid_a, ["h1"])
    db.define(boot.id.path, uid_b, ["h1"])
    db.commit(boot.id.path)
    setup = AtomicAction()
    db.increment(setup.id.path, "ghost", uid_a, ["h1"])
    db.increment(setup.id.path, "ghost", uid_b, ["h1"])
    db.commit(setup.id.path)

    cleaner = AtomicAction()
    assert db.purge_client(cleaner.id.path, "ghost") == [uid_a, uid_b]
    db.abort(cleaner.id.path)

    for uid in (uid_a, uid_b):
        probe = AtomicAction()
        snapshot = db.get_server_with_uses(probe.id.path, uid)
        db.abort(probe.id.path)
        assert snapshot.uses["h1"] == {"ghost": 1}, (uid, snapshot.uses)


# -- type-specific use-list locks ------------------------------------------------


def uses_of(db):
    probe = AtomicAction()
    snapshot = db.get_server_with_uses(probe.id.path, UID)
    db.abort(probe.id.path)
    return {host: dict(counters) for host, counters in snapshot.uses.items()}


def committed_uses(db, *client_nodes):
    setup = AtomicAction()
    for client_node in client_nodes:
        db.increment(setup.id.path, client_node, UID, ["alpha"])
    db.commit(setup.id.path)


def test_a_decrement_is_granted_while_another_clients_binding_action_holds_the_entry():
    db = make_db()
    committed_uses(db, "c1")
    binder = AtomicAction()
    db.get_server_with_uses(binder.id.path, UID, for_update=True)
    unbind = AtomicAction()
    db.decrement(unbind.id.path, "c1", UID, ["alpha"])
    db.commit(unbind.id.path)
    db.increment(binder.id.path, "c2", UID, ["alpha"])
    db.commit(binder.id.path)
    assert uses_of(db) == {"alpha": {"c2": 1}, "beta": {}}
    assert db.metrics.counter_value("server_db.locks_refused.decrement") == 0


def test_two_decrements_from_unrelated_actions_interleave():
    db = make_db()
    committed_uses(db, "c1", "c2")
    version = db.entry_version(UID)[0]
    first, second = AtomicAction(), AtomicAction()
    db.decrement(first.id.path, "c1", UID, ["alpha"])
    db.decrement(second.id.path, "c2", UID, ["alpha"])
    db.abort(first.id.path)
    db.commit(second.id.path)
    assert uses_of(db) == {"alpha": {"c1": 1}, "beta": {}}
    assert db.entry_version(UID)[0] == version + 1  # only the committed one


def test_binders_still_exclude_each_other():
    db = make_db()
    first, second = AtomicAction(), AtomicAction()
    db.get_server_with_uses(first.id.path, UID, for_update=True)
    with pytest.raises(LockRefused):
        db.get_server_with_uses(second.id.path, UID, for_update=True)
    assert db.metrics.counter_value("server_db.locks_refused.increment") == 1


@pytest.mark.parametrize("first", ["remove", "decrement"])
def test_remove_and_decrement_refuse_each_other_in_both_orders(first):
    """Remove's undo restores a snapshot of the host's use list, which
    would erase a concurrent Decrement: the two never share the entry."""
    db = make_db()
    committed_uses(db, "c1")
    holder, requester = AtomicAction(), AtomicAction()
    ops = {"remove": lambda a: db.remove(a.id.path, UID, "beta"),
           "decrement": lambda a: db.decrement(a.id.path, "c1", UID, ["alpha"])}
    second = "decrement" if first == "remove" else "remove"
    ops[first](holder)
    with pytest.raises(LockRefused):
        ops[second](requester)
    refused = "decrement" if second == "decrement" else "write"
    assert db.metrics.counter_value(f"server_db.locks_refused.{refused}") == 1


def test_a_binders_snapshot_still_shows_an_uncommitted_decrements_use():
    """The binder is serialised before the Decrement it overlaps: if
    the Decrement aborts, the binder must not have acted on it."""
    db = make_db()
    committed_uses(db, "c1")
    unbind = AtomicAction()
    db.decrement(unbind.id.path, "c1", UID, ["alpha"])
    binder = AtomicAction()
    snapshot = db.get_server_with_uses(binder.id.path, UID, for_update=True)
    assert snapshot.uses["alpha"] == {"c1": 1}
    assert snapshot.used_hosts() == ["alpha"]
    db.abort(unbind.id.path)
    db.commit(binder.id.path)
    assert uses_of(db) == {"alpha": {"c1": 1}, "beta": {}}

    # Once the Decrement commits it is no longer pending.
    unbind = AtomicAction()
    db.decrement(unbind.id.path, "c1", UID, ["alpha"])
    db.commit(unbind.id.path)
    binder = AtomicAction()
    assert db.get_server_with_uses(
        binder.id.path, UID, for_update=True).all_uses_empty
