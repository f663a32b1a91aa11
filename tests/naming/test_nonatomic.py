"""Tests for the traditional non-atomic name server (section 5)."""

import pytest

from repro.naming import NonAtomicNameServer, UnknownObject
from repro.storage import Uid

UID = Uid("sys", 1)


def make_server():
    server = NonAtomicNameServer()
    server.define((0,), UID, ["h1", "h2"])
    return server


def test_basic_operations_apply_immediately():
    server = make_server()
    assert server.get_server((1,), UID) == ["h1", "h2"]
    server.insert((1,), UID, "h3")
    assert server.get_server((2,), UID) == ["h1", "h2", "h3"]
    server.remove((3,), UID, "h1")
    assert server.get_server((4,), UID) == ["h2", "h3"]


def test_no_locks_no_conflicts():
    """Concurrent 'actions' interleave freely -- the whole point."""
    server = make_server()
    server.get_server((1,), UID)
    server.insert((2,), UID, "h3")      # no LockRefused ever
    server.remove((1,), UID, "h3")


def test_abort_rolls_nothing_back():
    server = make_server()
    server.insert((5,), UID, "h3")
    server.abort((5,))
    assert "h3" in server.get_server((6,), UID)


def test_prepare_always_readonly():
    server = make_server()
    server.insert((5,), UID, "h3")
    assert server.prepare((5,)) == "readonly"
    server.commit((5,))  # no-op


def test_use_lists_without_atomicity():
    server = make_server()
    server.increment((1,), "cn", UID, ["h1"])
    snapshot = server.get_server_with_uses((2,), UID)
    assert snapshot.uses["h1"] == {"cn": 1}
    server.decrement((3,), "cn", UID, ["h1"])
    assert server.is_quiescent(UID)


def test_unknown_object():
    with pytest.raises(UnknownObject):
        make_server().get_server((1,), Uid("sys", 99))


def test_knows_and_reset_volatile():
    server = make_server()
    assert server.knows(UID) and not server.knows(Uid("sys", 99))
    server.insert((5,), UID, "h3")
    server.reset_volatile()  # a restart keeps every immediate update
    assert server.get_server((6,), UID) == ["h1", "h2", "h3"]
