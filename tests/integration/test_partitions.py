"""Partition behaviour: the paper assumes partitions prevent active
replication from keeping the object available ('in the absence of
network partitions...'); these tests pin what our substrate does.  A
partition is a symmetric cut: ``Network.block`` in both directions
between every pair of hosts on opposite sides."""

from repro import ActiveReplication

from tests.conftest import add_work, build_system, cut, get_work


def isolate(system, host, heal=False):
    """Cut ``host`` off from every other node."""
    cut(system.network, {host}, set(system.nodes) - {host}, heal=heal)


def test_client_partitioned_from_everything_aborts():
    system, client, uid = build_system()
    isolate(system, "c1")
    result = system.run_transaction(client, add_work(uid, 1))
    assert not result.committed
    isolate(system, "c1", heal=True)
    assert system.run_transaction(client, add_work(uid, 1)).committed


def test_partition_isolating_stores_blocks_commit():
    system, client, uid = build_system(st=("t1", "t2"))
    # Client+servers+namenode on one side; both stores on the other.
    side, stores = {"c1", "s1", "s2", "s3", "namenode"}, {"t1", "t2"}
    cut(system.network, side, stores)
    result = system.run_transaction(client, add_work(uid, 1))
    assert not result.committed
    # Nothing was durably changed.
    cut(system.network, side, stores, heal=True)
    check = system.run_transaction(client, get_work(uid))
    assert check.value == 100


def test_partition_hiding_one_store_excludes_it():
    system, client, uid = build_system(st=("t1", "t2"),
                                       enable_recovery_managers=False)
    cut(system.network, {"c1", "s1", "s2", "s3", "namenode", "t1"}, {"t2"})
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert system.db_st(uid) == ["t1"]


def test_active_replication_minority_replica_masked():
    system, client, uid = build_system(ActiveReplication(), st=("t1",))

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        cut(system.network, {"c1", "s1", "s2", "namenode", "t1"}, {"s3"})
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == 102


def test_heal_restores_full_function():
    system, client, uid = build_system()
    isolate(system, "c1")
    assert not system.run_transaction(client, add_work(uid, 1)).committed
    isolate(system, "c1", heal=True)
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert set(system.store_versions(uid).values()) == {2}
