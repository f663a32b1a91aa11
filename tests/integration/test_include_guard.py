"""Regression tests for the Exclude/recovery race (include guard).

A store can be Excluded by a commit whose failure observation raced
with the store's own recovery: the exclusion lands *after* the one-shot
recovery pass finished, so nothing would ever Include the store back.
The periodic include guard on store nodes repairs this.
"""

from tests.conftest import add_work, build_system, get_work


def test_exclusion_landing_after_recovery_is_repaired():
    system, client, uid = build_system(sv=("s1",), st=("t1", "t2"))

    # Reproduce the race deterministically: crash t2, start a commit
    # that observes the crash, recover t2 BEFORE the commit's exclusion
    # executes at the db.
    def racy(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["t2"].crash()
        # Recover t2 almost immediately: the recovery pass will find t2
        # still in St (nothing excluded yet) and finish as a no-op,
        # while the commit below then Excludes t2.
        system.scheduler.schedule(0.02, system.nodes["t2"].recover)

    result = system.run_transaction(client, racy)
    assert result.committed
    # Let the race fully play out, then the guard repair it.
    system.run(until=system.scheduler.now + 15.0)
    assert sorted(system.db_st(uid)) == ["t1", "t2"]
    versions = system.store_versions(uid)
    assert versions["t2"] == versions["t1"]
    manager = system.recovery_managers["t2"]
    assert manager.guard_reinclusions >= 1 or manager.recoveries_completed >= 1


def test_st_never_left_empty_with_single_store():
    """The |St|=1 variant of the race must not strand St empty."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def racy(txn):
        yield from txn.invoke(uid, "add", 1)
        t1_store = system.nodes["t1"].object_store
        original = t1_store.write_shadow

        def write_and_die(uid_, buffer, version):
            original(uid_, buffer, version)
            system.scheduler.call_soon(system.nodes["t1"].crash)
            system.scheduler.schedule(0.3, system.nodes["t1"].recover)

        t1_store.write_shadow = write_and_die

    result = system.run_transaction(client, racy)
    system.run(until=system.scheduler.now + 15.0)
    assert system.db_st(uid) == ["t1"], "St must heal to contain t1"
    # The system remains usable afterwards.
    follow_up = system.run_transaction(client, add_work(uid, 1))
    assert follow_up.committed


def test_guard_probe_failure_aborts_instead_of_leaking_locks():
    """Regression: the guard's get_view probe takes a read lock at the
    db *before* UnknownObject is raised (entry lookup follows locking).
    The old bare ``except: continue`` abandoned the probe action in
    RUNNING state, leaving that read lock held on the entry until a
    cleaner happened by; the handler must abort the action instead."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    # A state the store holds but the database never defined -- e.g. an
    # object whose define aborted after bootstrap copied the state.
    ghost = system.new_uid()
    system.nodes["t1"].object_store.install(ghost, b"", version=1)
    system.run(until=system.scheduler.now + 10.0)  # several guard rounds
    assert not system.db.state_db.locks.is_locked(("st", ghost)), \
        "an abandoned probe action must not leave read locks behind"
    assert not system.db.server_db.locks.is_locked(("sv", ghost))
    # The system stays fully usable for real objects.
    assert system.run_transaction(client, add_work(uid, 1)).committed


def test_guard_does_nothing_when_membership_correct():
    system, client, uid = build_system(sv=("s1",), st=("t1", "t2"))
    for _ in range(3):
        assert system.run_transaction(client, add_work(uid, 1)).committed
    system.run(until=system.scheduler.now + 10.0)
    for name in ("t1", "t2"):
        assert system.recovery_managers[name].guard_reinclusions == 0


def _include_during_a_commit(offset):
    """t2 (Excluded, one version behind, back up) starts its
    refresh-and-Include ``offset`` seconds into a transaction that is
    committing the next version to ``St`` = [t1].  Returns the ``St``
    members left holding less than the newest committed version."""
    from repro.cluster.recovery import RecoveryManager
    from repro.sim.process import Timeout

    system, client, uid = build_system(sv=("s1",), st=("t1", "t2"),
                                       enable_recovery_managers=False)
    system.nodes["t2"].crash()
    assert system.run_transaction(client, add_work(uid, 1)).committed
    assert system.db_st(uid) == ["t1"]
    system.nodes["t2"].recover()
    manager = RecoveryManager(
        system.nodes["t2"], "namenode", serves=[], guard_interval=None,
        db_client=system._make_db_client(system.nodes["t2"]))

    def recover():
        yield Timeout(offset)
        yield from manager._refresh_and_include(uid)

    system.nodes["t2"].spawn(recover(), name="refresh-and-include")
    assert system.run_transaction(client, add_work(uid, 1)).committed
    system.run(until=system.scheduler.now + 1.0)
    versions = system.store_versions(uid)
    newest = max(versions.values())
    return [host for host in system.db_st(uid) if versions[host] < newest]


def test_the_st_read_lock_outlives_commit_shadow_so_no_include_slips_in(
        rpc_log):
    """A name node is never polled: the client action's read lock on
    ``St`` is released by the ``commit`` of the last fan-out, which
    leaves only once every store has acknowledged ``commit_shadow``.  An
    Include whose write lock was refused all through the action can
    therefore only be granted after the stores show the new version, so
    the copy it refreshed is never one behind.  Swept over every start
    offset across the transaction so the test does not depend on the
    timeline (while the name node voted ``readonly`` a trip *before*
    ``commit_shadow``, the offsets that put the refresh before the
    promotion and the Include after the vote left t2 in ``St`` one
    version behind)."""
    stale = {offset: members
             for offset in (step * 0.01 for step in range(25))
             if (members := _include_during_a_commit(offset))}
    assert stale == {}

    # And directly, on the timeline: the release leaves with the
    # servers' ``commit``, strictly after the promotion.
    system, client, uid = build_system(sv=("s1",), st=("t1", "t2"),
                                       enable_recovery_managers=False)
    del rpc_log[:]
    assert system.run_transaction(client, add_work(uid, 1)).committed
    issued = {}
    for _who, _target, service, method, at in rpc_log:
        issued.setdefault((service, method), set()).add(at)
    assert ("group_view_db", "prepare") not in issued
    (promoted_at,) = issued["store", "commit_shadow"]
    (released_at,) = issued["group_view_db", "commit"]
    assert issued["servers", "commit"] == {released_at}
    assert promoted_at < released_at
