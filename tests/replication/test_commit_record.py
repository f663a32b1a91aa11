"""Edge-case tests for commit-time state distribution (section 4.2)."""

from repro import SingleCopyPassive

from tests.conftest import add_work, build_system, get_work


def test_late_store_crash_between_phases_is_heuristically_excluded():
    """t2 crashes after write_shadow but before commit_shadow: the
    follow-up exclusion action removes it from St."""
    system, client, uid = build_system(st=("t1", "t2"),
                                       enable_recovery_managers=False)
    # Crash t2 exactly between the phases: write_shadow happens during
    # prepare; we hook the moment via a scheduled crash timed after the
    # prepare RPCs but before commit ones.  Easiest reliable hook: crash
    # when t2's store first holds a shadow.
    t2_store = system.nodes["t2"].object_store
    original_write = t2_store.write_shadow

    def write_and_die(uid_, buffer, version):
        original_write(uid_, buffer, version)
        system.scheduler.call_soon(system.nodes["t2"].crash)

    t2_store.write_shadow = write_and_die
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert system.db_st(uid) == ["t1"]
    assert system.metrics.counter_value("commit.late_exclusions") == 1
    # t1 carries the commit; consistency among *included* stores holds.
    assert system.store_versions(uid)["t1"] == 2


def test_late_exclude_under_plain_write_locks_is_left_to_the_backstop():
    """Without the exclude-write lock the late Exclude asks for plain
    WRITE while the client action still holds its ``St`` read lock (the
    name node is told the outcome only after ``commit_shadow``): it is
    refused and t2 stays listed -- until the next commit meets its
    silence and Excludes it under its own action."""
    system, client, uid = build_system(st=("t1", "t2"),
                                       use_exclude_write_lock=False,
                                       enable_recovery_managers=False)
    t2_store = system.nodes["t2"].object_store
    original_write = t2_store.write_shadow

    def write_and_die(uid_, buffer, version):
        original_write(uid_, buffer, version)
        system.scheduler.call_soon(system.nodes["t2"].crash)

    t2_store.write_shadow = write_and_die
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.metrics.counter_value("commit.late_exclusions") == 1
    assert system.db_st(uid) == ["t1", "t2"]
    assert not system.db.shards["namenode"].state_db.locks.is_locked(
        ("st", uid))

    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.db_st(uid) == ["t1"]
    assert system.store_versions(uid) == {"t1": 3}


def test_durability_loss_window_is_counted():
    """|St| = 1 and the only store dies between phases: the decided
    state is lost; the system records it rather than hiding it."""
    system, client, uid = build_system(st=("t1",),
                                       enable_recovery_managers=False)
    t1_store = system.nodes["t1"].object_store
    original_write = t1_store.write_shadow

    def write_and_die(uid_, buffer, version):
        original_write(uid_, buffer, version)
        system.scheduler.call_soon(system.nodes["t1"].crash)

    t1_store.write_shadow = write_and_die
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed  # 2PC had decided
    assert system.metrics.counter_value("commit.durability_lost") == 1


def test_source_server_crash_during_prepare_falls_back():
    """Active replication: the state-fetch source dies at commit time;
    the record falls back to another live replica."""
    from repro import ActiveReplication
    system, client, uid = build_system(ActiveReplication(), st=("t1",))

    def work(txn):
        yield from txn.invoke(uid, "add", 5)
        system.nodes["s1"].crash()  # preferred source for get_state

    result = system.run_transaction(client, work)
    assert result.committed
    assert system.store_versions(uid)["t1"] == 2


def test_abort_discards_all_shadows():
    system, client, uid = build_system(st=("t1", "t2"))

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        txn.abort("nope")

    system.run_transaction(client, work)
    for host in ("t1", "t2"):
        store = system.nodes[host].object_store
        assert not store.has_shadow(uid)
        assert store.version_of(uid) == 1


def test_readonly_transaction_attaches_no_distribution_record():
    system, client, uid = build_system(st=("t1", "t2"))
    before = {h: system.nodes[h].object_store.commits for h in ("t1", "t2")}
    system.run_transaction(client, get_work(uid), read_only=True)
    after = {h: system.nodes[h].object_store.commits for h in ("t1", "t2")}
    assert before == after


def test_exclusion_metrics():
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    system.run_transaction(client, add_work(uid, 1))
    assert system.metrics.counter_value("commit.stores_excluded") == 1
    assert system.metrics.counter_value("commit.late_exclusions") == 0


def test_version_chain_monotonic_across_many_commits():
    system, client, uid = build_system(st=("t1", "t2"))
    for expected in range(2, 8):
        system.run_transaction(client, add_work(uid, 1))
        versions = set(system.store_versions(uid).values())
        assert versions == {expected}


def _outrun_server_copy(system, uid, host):
    """Leave ``host``'s store holding a newer committed state than the
    activated server's copy (what a stale state-fetch source looks like
    from the store's side)."""
    store = system.nodes[host].object_store
    state = store.read_committed(uid)
    store.install(uid, state.buffer, state.version + 5)
    return state.version + 5


def test_a_store_refusing_a_stale_shadow_vetoes_and_excludes_nobody():
    """t1 answers the shadow write with a refusal -- it is healthy and
    already newer.  The action must not commit the stale state to the
    lagging t2, and must not Exclude the store that said so."""
    system, client, uid = build_system(st=("t1", "t2"),
                                       enable_recovery_managers=False)
    assert system.run_transaction(client, add_work(uid, 1)).committed
    newer = _outrun_server_copy(system, uid, "t1")

    result = system.run_transaction(client, add_work(uid, 1))
    assert not result.committed and result.reason == "commit_vetoed"
    assert system.metrics.counter_value("commit.stale_state_refused") == 1
    assert system.metrics.counter_value("commit.stores_excluded") == 0
    assert system.db_st(uid) == ["t1", "t2"]
    assert system.store_versions(uid) == {"t1": newer, "t2": 2}
    assert not system.nodes["t2"].object_store.has_shadow(uid)


def test_a_lone_refusing_store_is_not_counted_as_down():
    system, client, uid = build_system(st=("t1",),
                                       enable_recovery_managers=False)
    assert system.run_transaction(client, add_work(uid, 1)).committed
    _outrun_server_copy(system, uid, "t1")

    assert not system.run_transaction(client, add_work(uid, 1)).committed
    assert system.metrics.counter_value("commit.all_stores_down") == 0
    assert system.metrics.counter_value("commit.stale_state_refused") == 1


def test_a_refusal_beside_a_silent_store_still_excludes_nobody():
    system, client, uid = build_system(st=("t1", "t2"),
                                       enable_recovery_managers=False)
    assert system.run_transaction(client, add_work(uid, 1)).committed
    _outrun_server_copy(system, uid, "t1")
    system.nodes["t2"].crash()

    assert not system.run_transaction(client, add_work(uid, 1)).committed
    assert system.metrics.counter_value("commit.stores_excluded") == 0
    assert system.db_st(uid) == ["t1", "t2"]
