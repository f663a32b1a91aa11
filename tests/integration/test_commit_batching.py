"""Batch-boundary crash windows for the raw-speed commit plane.

The ``CommitBatcher`` coalesces concurrent actions' same-phase RPCs
into one ``_many`` call, so every 2PC crash window now has a batched
shape: a vetoed action sharing a prepare batch with a committing one,
a store host dying with several actions' shadows in one batch, a
coordinator dying between the batched prepare and commit waves.  These
tests pin the invariant the batcher must preserve through all of them:
each action sees exactly the per-call verdicts it would have seen
unbatched -- batching changes message count, never outcomes.
"""

from repro import DistributedSystem, SingleCopyPassive, SystemConfig

from tests.conftest import Counter, add_work, get_work


def build_batched(st1=("t1",), st2=("t1",), window=0.005, **config):
    """Two counters for two concurrent actions on one batching client."""
    system = DistributedSystem(SystemConfig(
        seed=11, commit_batching=True, commit_batch_window=window,
        enable_recovery_managers=False, **config))
    system.registry.register(Counter)
    for host in ("s1", "s2"):
        system.add_node(host, server=True)
    for host in sorted(set(st1) | set(st2)):
        system.add_node(host, store=True)
    client = system.add_client("c1", policy=SingleCopyPassive())
    uid1 = system.create_object(Counter(system.new_uid(), value=0),
                                sv_hosts=["s1"], st_hosts=list(st1))
    uid2 = system.create_object(Counter(system.new_uid(), value=0),
                                sv_hosts=["s2"], st_hosts=list(st2))
    return system, client, uid1, uid2


def run_concurrently(system, client, *works):
    processes = [client.transaction(work) for work in works]
    return [system.scheduler.run_until_settled(p, until=300.0)
            for p in processes]


def test_mixed_outcome_prepare_batch_spares_the_batchmate():
    """Vote demux under a mixed COMMIT/ABORT batch: one action's shadow
    write is refused per-item inside the shared ``write_shadow_many``;
    it votes ABORT while its batchmate commits untouched."""
    system, client, uid1, uid2 = build_batched()
    store = system.nodes["t1"].object_store
    original = store.write_shadow

    def refuse_uid2(uid, buffer, version):
        if uid == uid2:
            raise ValueError("disk quota refused")
        return original(uid, buffer, version)

    store.write_shadow = refuse_uid2
    first, second = run_concurrently(
        system, client, add_work(uid1, 1), add_work(uid2, 1))

    # The two prepares really shared one batch...
    assert system.metrics.counter_value("commit_batch.batched_rpcs") >= 1
    # ...and were demultiplexed: the refused action aborts alone.
    assert first.committed
    assert not second.committed
    final1 = system.run_transaction(client, get_work(uid1))
    final2 = system.run_transaction(client, get_work(uid2))
    assert final1.value == 1
    assert final2.value == 0  # the aborted action's effect never showed


def test_store_crash_mid_batch_excludes_without_aborting_batchmates():
    """t1 dies holding both actions' shadows (written by one batched
    ``write_shadow_many``); each action excludes the victim from its
    own St and commits on its surviving replica."""
    system, client, uid1, uid2 = build_batched(st1=("t1", "t2"),
                                               st2=("t1", "t3"))
    store = system.nodes["t1"].object_store
    original = store.write_shadow
    written = []

    def write_then_die(uid, buffer, version):
        original(uid, buffer, version)
        written.append(uid)
        if len(written) == 2:
            # Both batchmates' shadows landed: die before either
            # commit_shadow can arrive.
            system.scheduler.call_soon(system.nodes["t1"].crash)

    store.write_shadow = write_then_die
    first, second = run_concurrently(
        system, client, add_work(uid1, 1), add_work(uid2, 1))

    assert system.metrics.counter_value("commit_batch.batched_rpcs") >= 1
    assert first.committed and second.committed
    assert system.db_st(uid1) == ["t2"]
    assert system.db_st(uid2) == ["t3"]
    assert system.metrics.counter_value("commit.late_exclusions") == 2
    assert system.store_versions(uid1)["t2"] == 2
    assert system.store_versions(uid2)["t3"] == 2


def test_coordinator_crash_between_batched_waves_presumes_abort():
    """The coordinator dies after the batched prepare wave but before
    any commit wave: no participant may apply, and cleanup restores
    quiescence exactly as it would for unbatched 2PC."""
    system, client, uid1, uid2 = build_batched(
        binding_scheme="independent", enable_cleaner=True)
    store = system.nodes["t1"].object_store
    original = store.write_shadow
    written = []

    def crash_coordinator_after_prepare(uid, buffer, version):
        original(uid, buffer, version)
        written.append(uid)
        if len(written) == 2:
            # Both batchmates prepared on the store; kill the client
            # before its commit wave can start.
            system.scheduler.call_soon(system.nodes["c1"].crash)

    store.write_shadow = crash_coordinator_after_prepare
    processes = [client.transaction(add_work(uid1, 1)),
                 client.transaction(add_work(uid2, 1))]
    system.run(until=system.scheduler.now + 1.0)
    for process in processes:
        # Killed with the node, or finished as aborted -- never committed.
        if process.done and not process.failed:
            assert not process.result().committed

    # Let the janitors run their rounds.
    system.run(until=system.scheduler.now + 20.0)

    # Presumed abort: neither action's effect is visible anywhere, and
    # no committed version moved.
    for uid in (uid1, uid2):
        versions = system.store_versions(uid)
        assert set(versions.values()) == {1}, versions
    other = system.add_client("c2", policy=SingleCopyPassive())
    assert system.run_transaction(other, get_work(uid1)).value == 0
    assert system.run_transaction(other, get_work(uid2)).value == 0


def test_recovered_coordinator_batches_again_with_fresh_generation():
    """A crash resets the batcher (buffered futures fail, scheduled
    flushes die via the generation guard); after recovery the same node
    batches new work normally."""
    system, client, uid1, uid2 = build_batched()
    node = system.nodes["c1"]
    node.crash()
    assert node.commit_batcher is not None
    system.run(until=system.scheduler.now + 1.0)
    node.recover()
    system.run(until=system.scheduler.now + 1.0)
    first, second = run_concurrently(
        system, client, add_work(uid1, 1), add_work(uid2, 1))
    assert first.committed and second.committed
    assert system.metrics.counter_value("commit_batch.batched_rpcs") >= 1
