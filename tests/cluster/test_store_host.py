"""Tests for the store host RPC service."""

import pytest

from repro import DistributedSystem, SystemConfig
from repro.cluster.store_host import STORE_SERVICE, StoreHost
from repro.net.errors import RpcRemoteError, RpcTimeout
from repro.storage import Uid


def make_world():
    system = DistributedSystem(SystemConfig(seed=1))
    store_node = system.add_node("t1", store=True)
    caller = system.add_node("caller")
    return system, store_node, caller


def call(system, caller, method, *args):
    future = caller.rpc.call("t1", STORE_SERVICE, method, *args)
    return system.scheduler.run_until_settled(future, until=100.0)


def test_read_roundtrip():
    system, store_node, caller = make_world()
    uid = Uid("sys", 9)
    store_node.object_store.install(uid, b"hello", 3)
    buffer, version = call(system, caller, "read", str(uid))
    assert buffer == b"hello"
    assert version == 3


def test_read_missing_is_remote_error():
    system, _, caller = make_world()
    with pytest.raises(RpcRemoteError) as info:
        call(system, caller, "read", "sys:404")
    assert info.value.remote_type == "NoSuchState"


def test_shadow_protocol_over_rpc():
    system, store_node, caller = make_world()
    uid = Uid("sys", 9)
    store_node.object_store.install(uid, b"v1", 1)
    assert call(system, caller, "write_shadow", str(uid), b"v2", 2)
    assert call(system, caller, "version_of", str(uid)) == 1
    assert call(system, caller, "commit_shadow", str(uid))
    assert call(system, caller, "version_of", str(uid)) == 2


def test_discard_shadow_over_rpc():
    system, store_node, caller = make_world()
    uid = Uid("sys", 9)
    store_node.object_store.install(uid, b"v1", 1)
    call(system, caller, "write_shadow", str(uid), b"v2", 2)
    call(system, caller, "discard_shadow", str(uid))
    buffer, version = call(system, caller, "read", str(uid))
    assert buffer == b"v1"


def test_batched_commits_demux_per_item_and_share_one_log_force():
    """``commit_shadow_many`` runs the single-item handler per slot (a
    uid with no shadow reports its own error, its batchmates commit)
    and makes the whole batch durable with ONE log force."""
    system = DistributedSystem(SystemConfig(seed=1, log_force_interval=0.003))
    store_node = system.add_node("t1", store=True)
    caller = system.add_node("caller")
    uids = [Uid("sys", n) for n in (1, 2, 3)]
    for uid in uids:
        store_node.object_store.install(uid, b"v1", 1)
    outcomes = call(system, caller, "write_shadow_many",
                    [(str(uid), b"v2", 2) for uid in uids[:2]])
    assert outcomes == [("ok", True), ("ok", True)]
    outcomes = call(system, caller, "commit_shadow_many",
                    [(str(uid),) for uid in uids])
    assert [outcome[:2] for outcome in outcomes] == [
        ("ok", True), ("ok", True), ("err", "NoSuchShadow")]
    assert [store_node.object_store.version_of(uid) for uid in uids] \
        == [2, 2, 1]
    snapshot = system.metrics.snapshot()
    assert snapshot["store.t1.log_forces"] == 1
    assert snapshot.get("store.t1.log_force_joins", 0) == 0


def test_crashed_store_times_out():
    system, store_node, caller = make_world()
    store_node.crash()
    with pytest.raises(RpcTimeout):
        call(system, caller, "version_of", "sys:1")


def test_install_on_requires_store():
    system = DistributedSystem(SystemConfig(seed=1))
    node = system.add_node("plain")
    with pytest.raises(ValueError):
        StoreHost(node)


def test_service_reinstalled_after_recovery():
    system, store_node, caller = make_world()
    uid = Uid("sys", 9)
    store_node.object_store.install(uid, b"x", 1)
    store_node.crash()
    store_node.recover()
    buffer, version = call(system, caller, "read", str(uid))
    assert buffer == b"x"
