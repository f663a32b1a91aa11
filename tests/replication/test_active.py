"""Tests for active replication (figure 4 and section 2.3(i))."""

from repro import ActiveReplication

from tests.conftest import add_work, build_system, get_work


def test_all_replicas_execute_every_invocation():
    system, client, uid = build_system(ActiveReplication(), sv=("s1", "s2", "s3"))
    result = system.run_transaction(client, add_work(uid, 7))
    assert result.committed
    assert result.value == 107
    # Every server host executed the op: check their servers' states agree.
    states = []
    for host in ("s1", "s2", "s3"):
        server_host = system.nodes[host].rpc.service("servers")
        if server_host.has_server(str(uid)):
            buffer, version = server_host.get_state(str(uid))
            states.append((host, version))
    assert len(states) == 3
    assert len({v for _, v in states}) == 1


def test_degree_limits_activation():
    system, client, uid = build_system(ActiveReplication(degree=2))

    def work(txn):
        yield from txn.invoke(uid, "get")
        return list(txn.bindings[uid].live_hosts)

    result = system.run_transaction(client, work)
    assert len(result.value) == 2


def test_replica_crash_is_masked():
    """Up to k-1 replica failures masked during the action."""
    system, client, uid = build_system(ActiveReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s2"].crash()
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == 102
    assert system.metrics.counter_value("policy.active.replicas_masked") >= 1


def test_two_crashes_of_three_still_masked():
    system, client, uid = build_system(ActiveReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s2"].crash()
        system.nodes["s3"].crash()
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == 102


def test_sequencer_crash_aborts():
    """The first bound replica sequences; losing it loses the group."""
    system, client, uid = build_system(ActiveReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s1"].crash()  # s1 is the sequencer
        yield from txn.invoke(uid, "add", 1)

    result = system.run_transaction(client, work)
    assert not result.committed
    assert result.reason.startswith("all_replicas_silent")
    # Nobody answered, so nothing was masked: the counter must not
    # report the aborted action's three silent members as absorbed.
    assert system.metrics.counter_value("policy.active.replicas_masked") == 0


def test_all_replicas_crashed_aborts():
    system, client, uid = build_system(ActiveReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        for host in ("s1", "s2", "s3"):
            system.nodes[host].crash()
        yield from txn.invoke(uid, "add", 1)

    result = system.run_transaction(client, work)
    assert not result.committed
    assert set(system.store_versions(uid).values()) == {1}


def test_commit_state_from_surviving_replica():
    system, client, uid = build_system(ActiveReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 5)
        system.nodes["s1"].crash()  # crash AFTER the write round
        # no further invocations; commit must fetch state from s2/s3

    result = system.run_transaction(client, work)
    assert result.committed
    assert set(system.store_versions(uid).values()) == {2}
    check = system.run_transaction(client, get_work(uid))
    assert check.value == 105


def test_second_client_binds_to_same_group():
    system, client, uid = build_system(ActiveReplication())
    client2 = system.add_client("c2", policy=ActiveReplication())
    r1 = system.run_transaction(client, add_work(uid, 1))
    r2 = system.run_transaction(client2, add_work(uid, 1))
    assert r1.committed and r2.committed
    final = system.run_transaction(client, get_work(uid))
    assert final.value == 102
