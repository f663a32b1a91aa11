"""Tests for the recovery protocols (paper section 4.2 and 4.1.2)."""

from repro import SingleCopyPassive, SystemConfig

from tests.conftest import add_work, build_system, get_work


def test_excluded_store_refreshes_and_reincludes():
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert system.db_st(uid) == ["t1"]
    system.nodes["t2"].recover()
    system.run(until=system.scheduler.now + 10)
    assert sorted(system.db_st(uid)) == ["t1", "t2"]
    versions = system.store_versions(uid)
    assert versions["t2"] == versions["t1"]  # refreshed before Include


def test_recovered_store_with_current_state_reincludes_without_refresh():
    system, client, uid = build_system(st=("t1", "t2"))
    # Crash t2 with NO intervening commits: its state stays current.
    system.nodes["t2"].crash()
    # A commit excludes it...
    # (no commit here: exercise the no-refresh path)
    system.nodes["t2"].recover()
    system.run(until=system.scheduler.now + 10)
    assert sorted(system.db_st(uid)) == ["t1", "t2"]
    manager = system.recovery_managers["t2"]
    assert manager.states_refreshed == 0


def test_multiple_commits_while_down_still_one_refresh():
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    for _ in range(3):
        assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes["t2"].recover()
    system.run(until=system.scheduler.now + 10)
    versions = system.store_versions(uid)
    assert versions["t2"] == versions["t1"] == 4


def test_stale_store_stays_out_while_every_st_member_is_silent():
    """ "No ``St`` member answered my version probe" is not "nothing is
    newer": a store that was Excluded and recovers while the only
    current copy is down must not Include its stale state -- a server
    activated from it would commit on a lineage the current store
    refuses when it returns (figure 5's lost increments at seed 7)."""
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.db_st(uid) == ["t1"]
    system.nodes["t1"].crash()
    system.nodes["t2"].recover()
    system.run(until=system.scheduler.now + 10)
    assert system.db_st(uid) == ["t1"]
    assert system.recovery_managers["t2"].states_refreshed == 0
    system.nodes["t1"].recover()
    system.run(until=system.scheduler.now + 10)
    assert sorted(system.db_st(uid)) == ["t1", "t2"]
    versions = system.store_versions(uid)
    assert versions["t2"] == versions["t1"] == 2


def test_server_node_reinsert_waits_for_quiescence():
    """A recovering server node must not serve while the object is active."""
    system, client, uid = build_system(sv=("s1", "s2"), st=("t1",),
                                       scheme="independent")
    # Crash and immediately recover s2; its recovery Insert needs the
    # object quiescent.  Run a transaction binding s1 concurrently.
    system.nodes["s2"].crash()
    system.nodes["s2"].recover()
    result = system.run_transaction(client, add_work(uid, 1))
    if not result.committed:
        # The bind's one lookup write-locks ``Sv`` at the instant the
        # Insert holds it; like any refused binder, the client retries.
        assert result.reason == "lock_refused"
        result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    system.run(until=system.scheduler.now + 20)
    manager = system.recovery_managers["s2"]
    assert manager.recoveries_completed == 1
    # After recovery completes, s2 serves again.
    host = system.nodes["s2"].rpc.service("servers")
    assert host.accepting


def test_recovering_server_refuses_activation_until_insert():
    system, client, uid = build_system(sv=("s1", "s2"), st=("t1",))
    system.nodes["s2"].crash()
    system.nodes["s2"].recover()
    host = system.nodes["s2"].rpc.service("servers")
    # The recovery process hasn't run yet (no simulation time passed).
    assert not host.accepting
    system.run(until=system.scheduler.now + 10)
    assert host.accepting


def test_store_and_server_roles_both_recover():
    """The alpha=beta case: one node is both server and store."""
    from tests.conftest import Counter
    from repro import DistributedSystem
    system = DistributedSystem(SystemConfig(seed=3))
    system.registry.register(Counter)
    system.add_node("dual", server=True, store=True)
    system.add_node("t1", store=True)
    client = system.add_client("c1", policy=SingleCopyPassive())
    uid = system.create_object(Counter(system.new_uid(), value=5),
                               sv_hosts=["dual"], st_hosts=["dual", "t1"])
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.nodes["dual"].crash()
    # With the only server down the object is unavailable...
    unavailable = system.run_transaction(client, add_work(uid, 1))
    assert not unavailable.committed
    system.nodes["dual"].recover()
    system.run(until=system.scheduler.now + 20)
    # ...and available again after full recovery.
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert sorted(system.db_st(uid)) == ["dual", "t1"]
