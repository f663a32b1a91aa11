"""Tests for the section-5 hybrid name service."""

import pytest

from repro.actions import AtomicAction, LockRefused
from repro.naming.hybrid import HybridNameService
from repro.storage import Uid

UID_TEXT = "sys:1"


def make_service():
    service = HybridNameService()
    service.define_object((0,), UID_TEXT, ["h1", "h2"], ["t1", "t2"])
    service.commit((0,))
    return service


def test_server_side_is_nonatomic():
    service = make_service()
    service.insert((5,), UID_TEXT, "h3")
    service.abort((5,))  # nothing rolled back on the server side
    assert "h3" in service.get_binding((6,), UID_TEXT, (6,))[0]


def test_state_side_is_atomic():
    service = make_service()
    action = AtomicAction()
    service.exclude(action.id.path, [(UID_TEXT, ["t2"])])
    service.abort(action.id.path)  # St exclusion rolled back
    probe = AtomicAction()
    assert service.get_view(probe.id.path, UID_TEXT) == ["t1", "t2"]


def test_state_side_locks_enforced():
    service = make_service()
    reader = AtomicAction()
    service.get_view(reader.id.path, UID_TEXT)
    includer = AtomicAction()
    with pytest.raises(LockRefused):
        service.include(includer.id.path, UID_TEXT, "t9")


def test_server_side_never_locks():
    service = make_service()
    service.server_side.get_server((1,), UID_TEXT)
    service.insert((2,), UID_TEXT, "h9")   # would be refused if locked
    service.remove((3,), UID_TEXT, "h9")


def test_prepare_reflects_only_state_side():
    service = make_service()
    action = AtomicAction()
    service.insert(action.id.path, UID_TEXT, "h3")  # non-atomic: invisible
    assert service.prepare(action.id.path) == "readonly"
    service.exclude(action.id.path, [(UID_TEXT, ["t2"])])
    assert service.prepare(action.id.path) == "ok"
    service.commit(action.id.path)


def test_use_lists_work_without_atomicity():
    service = make_service()
    service.increment((1,), "cn", UID_TEXT, ["h1"])
    assert not service.is_quiescent(UID_TEXT)
    service.decrement((2,), "cn", UID_TEXT, ["h1"])
    assert service.is_quiescent(UID_TEXT)


def test_knows_and_ping():
    service = make_service()
    assert service.knows(UID_TEXT)
    assert not service.knows("sys:404")
    assert service.ping() == "pong"


def test_get_binding_with_uses_locks_only_the_state_side():
    """The hybrid service answers the use-list schemes' one lookup too
    (every bind of ``paper_client_crash`` asks it)."""
    service = make_service()
    first, client = AtomicAction(), AtomicAction()
    service.increment(first.id.path, "cn", UID_TEXT, ["h1"])
    snapshot, view = service.get_binding_with_uses(first.id.path, UID_TEXT,
                                                   client.id.path)
    assert snapshot.used_hosts() == ["h1"]
    assert view == ["t1", "t2"]
    assert service.prepare(first.id.path) == "readonly"  # no lock, no undo
    holders = service.state_db.locks.holders_of(("st", Uid.parse(UID_TEXT)))
    assert [owner.path for owner, _ in holders] == [client.id.path]
