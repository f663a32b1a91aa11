"""Tests for the shadow-copy object store."""

import pytest

from repro.storage import (
    NoSuchShadow,
    NoSuchState,
    ObjectStore,
    StoreUnavailable,
    Uid,
)

UID = Uid("n", 1)


def test_install_and_read():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    state = store.read_committed(UID)
    assert state.buffer == b"v1"
    assert state.version == 1


def test_read_missing_raises():
    with pytest.raises(NoSuchState):
        ObjectStore("beta").read_committed(UID)


def test_shadow_invisible_until_commit():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    store.write_shadow(UID, b"v2", 2)
    assert store.read_committed(UID).buffer == b"v1"
    store.commit_shadow(UID)
    assert store.read_committed(UID).buffer == b"v2"
    assert store.version_of(UID) == 2


def test_commit_without_shadow_raises():
    store = ObjectStore("beta")
    with pytest.raises(NoSuchShadow):
        store.commit_shadow(UID)


def test_discard_shadow_aborts():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    store.write_shadow(UID, b"v2", 2)
    store.discard_shadow(UID)
    assert store.read_committed(UID).buffer == b"v1"
    assert not store.has_shadow(UID)
    store.discard_shadow(UID)  # idempotent


def test_shadow_version_must_be_newer():
    store = ObjectStore("beta")
    store.install(UID, b"v2", 2)
    with pytest.raises(ValueError):
        store.write_shadow(UID, b"old", 2)
    with pytest.raises(ValueError):
        store.write_shadow(UID, b"older", 1)


def test_crash_loses_shadows_keeps_committed():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    store.write_shadow(UID, b"v2", 2)
    store.mark_down()
    store.mark_up()
    assert store.read_committed(UID).buffer == b"v1"
    assert not store.has_shadow(UID)


def test_down_store_refuses_everything():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    store.mark_down()
    for op in (lambda: store.read_committed(UID),
               lambda: store.write_shadow(UID, b"x", 2),
               lambda: store.commit_shadow(UID),
               lambda: store.install(UID, b"x", 2),
               lambda: store.uids(),
               lambda: store.version_of(UID)):
        with pytest.raises(StoreUnavailable):
            op()


def test_install_refuses_version_regression():
    store = ObjectStore("beta")
    store.install(UID, b"v5", 5)
    with pytest.raises(ValueError):
        store.install(UID, b"v3", 3)
    store.install(UID, b"v5b", 5)  # same version allowed (idempotent repair)


def test_uids_sorted():
    store = ObjectStore("beta")
    for serial in (3, 1, 2):
        store.install(Uid("n", serial), b"x", 1)
    assert store.uids() == [Uid("n", 1), Uid("n", 2), Uid("n", 3)]


def test_shadow_version_of():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    assert store.shadow_version_of(UID) == 0
    store.write_shadow(UID, b"v2", 2)
    assert store.shadow_version_of(UID) == 2


def test_commit_counter():
    store = ObjectStore("beta")
    store.install(UID, b"v1", 1)
    store.write_shadow(UID, b"v2", 2)
    store.commit_shadow(UID)
    store.write_shadow(UID, b"v3", 3)
    store.discard_shadow(UID)
    assert store.commits == 1
    assert store.aborts == 1
