"""Tests for coordinator-cohort replication (section 2.3(ii))."""

from repro import CoordinatorCohortReplication

from tests.conftest import add_work, build_system, get_work


def test_only_coordinator_processes():
    system, client, uid = build_system(CoordinatorCohortReplication())
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    # Cohorts received a checkpoint, not invocations.
    s1 = system.nodes["s1"].rpc.service("servers")
    s2 = system.nodes["s2"].rpc.service("servers")
    assert s1._server(str(uid)).invocations > 0
    assert s2._server(str(uid)).invocations == 0


def test_checkpoint_keeps_cohorts_current():
    system, client, uid = build_system(CoordinatorCohortReplication())
    system.run_transaction(client, add_work(uid, 5))
    for host in ("s2", "s3"):
        server_host = system.nodes[host].rpc.service("servers")
        buffer, version = server_host.get_state(str(uid))
        assert version == 2


def test_failover_before_write_is_masked():
    system, client, uid = build_system(CoordinatorCohortReplication())

    def work(txn):
        v1 = yield from txn.invoke(uid, "get")
        system.nodes["s1"].crash()
        v2 = yield from txn.invoke(uid, "get")  # cohort s2 takes over
        return (v1, v2)

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == (100, 100)
    assert system.metrics.counter_value(
        "policy.coordinator_cohort.failovers_masked") == 1


def test_coordinator_crash_after_write_aborts():
    system, client, uid = build_system(CoordinatorCohortReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s1"].crash()
        yield from txn.invoke(uid, "add", 1)

    result = system.run_transaction(client, work)
    assert not result.committed
    assert result.reason.startswith("coordinator_lost_dirty")


def test_retry_after_dirty_abort_succeeds_on_cohort():
    """Availability preserved: the restarted action finds a cohort."""
    system, client, uid = build_system(CoordinatorCohortReplication())
    system.run_transaction(client, add_work(uid, 1))  # checkpoint at 101

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s1"].crash()
        yield from txn.invoke(uid, "add", 1)

    aborted = system.run_transaction(client, work)
    assert not aborted.committed
    retry = system.run_transaction(client, add_work(uid, 1))
    assert retry.committed
    final = system.run_transaction(client, get_work(uid))
    assert final.value == 102  # 101 + the successful retry only


def test_all_replicas_crashed_aborts():
    system, client, uid = build_system(CoordinatorCohortReplication())

    def work(txn):
        yield from txn.invoke(uid, "get")
        for host in ("s1", "s2", "s3"):
            system.nodes[host].crash()
        yield from txn.invoke(uid, "get")

    result = system.run_transaction(client, work)
    assert not result.committed


def test_chain_of_failovers():
    system, client, uid = build_system(CoordinatorCohortReplication())

    def work(txn):
        yield from txn.invoke(uid, "get")
        system.nodes["s1"].crash()
        yield from txn.invoke(uid, "get")   # s2 takes over
        system.nodes["s2"].crash()
        v = yield from txn.invoke(uid, "get")  # s3 takes over
        return v

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == 100
    assert system.metrics.counter_value(
        "policy.coordinator_cohort.failovers_masked") == 2


def test_coordinator_crash_between_last_write_and_commit_aborts():
    """The action's writes exist only at the coordinator until the
    commit-time checkpoint: if it dies before its state is fetched, a
    cohort's clean copy must not be committed in its place."""
    system, client, uid = build_system(CoordinatorCohortReplication())

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["s1"].crash()

    result = system.run_transaction(client, work)
    assert not result.committed and result.reason == "commit_vetoed"
    assert set(system.store_versions(uid).values()) == {1}
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.run_transaction(client, get_work(uid)).value == 101
