"""Unit tests for the online-resharding building blocks.

The ReshardManager's end-to-end behaviour lives in
``tests/integration/test_online_reshard.py``; these tests pin the
pieces it is built from: ring cloning and staged transitions, the
dual-ownership union routing, the lock-guarded install/forget surface
on the database, and the autoscaler's triggering rules.
"""

import pytest

from repro.actions import AtomicAction
from repro.naming import GroupViewDatabase, ShardAutoscaler, ShardRouter
from repro.naming.group_view_db import SYNC_SERVICE_NAME
from repro.naming.reshard import ReshardManager
from repro.naming.shard_router import RingTransition
from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
from repro.sim import Scheduler
from repro.sim.process import Timeout


def test_clone_is_independent_and_routes_identically():
    ring = ShardRouter(["a", "b", "c"], replicas=16)
    dup = ring.clone()
    for key in range(50):
        assert ring.shard_for(key) == dup.shard_for(key)
        assert ring.preference_list(key, 2) == dup.preference_list(key, 2)
    dup.add_node("d")
    assert ring.nodes == ["a", "b", "c"]
    assert dup.nodes == ["a", "b", "c", "d"]
    assert dup.epoch == ring.epoch + 1
    assert dup.transition is None


def test_epoch_counts_membership_changes():
    ring = ShardRouter(["a", "b"], replicas=8)
    assert ring.epoch == 0  # boot membership is epoch 0
    ring.add_node("c")
    ring.remove_node("a")
    assert ring.epoch == 2


def test_membership_change_moves_only_the_affected_arcs():
    """The consistent-hash stability property the migration relies on:
    growing the ring moves keys *onto* the new host only -- no key
    moves between two old hosts."""
    ring = ShardRouter(["a", "b", "c"], replicas=32)
    grown = ring.clone()
    grown.add_node("d")
    moved = unmoved = 0
    for key in range(200):
        old = ring.preference_list(key, 2)
        new = grown.preference_list(key, 2)
        movers = [h for h in new if h not in old]
        if movers:
            moved += 1
            assert movers == ["d"], (key, old, new)
        else:
            assert old == new, (key, old, new)
            unmoved += 1
    assert moved > 0 and unmoved > 0


def test_union_preference_list_without_transition_is_plain():
    ring = ShardRouter(["a", "b", "c"], replicas=16)
    for key in range(20):
        assert ring.union_preference_list(key, 2) == \
            ring.preference_list(key, 2)


def test_union_preference_list_is_old_first_plus_new_extras():
    ring = ShardRouter(["a", "b", "c"], replicas=16)
    target = ring.clone()
    target.add_node("d")
    ring.transition = RingTransition(target, epoch=target.epoch)
    for key in range(100):
        old = ring.preference_list(key, 2)
        new = target.preference_list(key, 2)
        union = ring.union_preference_list(key, 2)
        assert union[:len(old)] == old, "old epoch owners must come first"
        assert set(union) == set(old) | set(new)
        assert len(union) == len(set(union))


def _committed_entry(db, uid_text="sys:1", host="h1"):
    boot = AtomicAction()
    db.define_object(boot.id.path, uid_text, [host], [host])
    db.commit(boot.id.path)
    return uid_text


def test_guarded_install_entry_respects_local_locks():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    holder = AtomicAction()
    db.get_binding(holder.id.path, uid_text, holder.id.path)  # read locks of a live action
    ahead = ((9, 0), (9, 0))
    assert db.guarded_install_entry(uid_text, ["h2"], {"h2": {}}, ["h2"],
                                    ahead) is None
    db.abort(holder.id.path)
    assert db.guarded_install_entry(uid_text, ["h2"], {"h2": {}}, ["h2"],
                                    ahead) is True
    assert db.get_binding((0,), uid_text, (0,)) == (["h2"], ["h2"])


def test_guarded_install_entry_is_version_gated():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    # Same-or-older versions must not land (fresh-over-stale only).
    same = db.entry_versions(uid_text)
    older = ((0, 0), (0, 0))
    for versions in (same, older):
        assert db.guarded_install_entry(uid_text, ["h9"], {"h9": {}}, ["h9"],
                                        versions) is False
    assert db.get_binding((0,), uid_text, (0,)) == (["h1"], ["h1"])


def test_forget_entry_removes_both_halves():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    assert db.forget_entry(uid_text) is True
    assert not db.knows(uid_text)
    assert db.entry_versions(uid_text) == ((0, 0), (0, 0))
    assert db.forget_entry(uid_text) is False  # idempotent


def test_forget_entry_defers_to_live_actions():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    holder = AtomicAction()
    db.get_view(holder.id.path, uid_text)
    assert db.forget_entry(uid_text) is None
    assert db.knows(uid_text)
    db.abort(holder.id.path)
    assert db.forget_entry(uid_text) is True


class _FakeLatency:
    """A scripted GetServer latency histogram and shard ring.

    Every 0.1 s it observes 20 samples of the current ``latency`` --
    what clients would see of the ring.
    """

    def __init__(self, scheduler, latency, shards=2):
        self.latency = latency
        self.shards = shards
        self.values = []
        self.consumed = []  # the sample's length at each read

        def observe():
            self.values.extend([self.latency] * 20)
            scheduler.schedule(0.1, observe)

        scheduler.schedule(0.1, observe)

    def sample(self):
        self.consumed.append(len(self.values))
        return self.values


def _scaler(scheduler, load, scale_up, busy=lambda: False, max_shards=4,
            interval=1.0):
    return ShardAutoscaler(scheduler, latency_sample=load.sample,
                           scale_up=scale_up, shards=lambda: load.shards,
                           busy=busy, p95_up=0.05, interval=interval,
                           max_shards=max_shards)


def test_autoscaler_triggers_on_sustained_per_shard_load():
    scheduler = Scheduler()
    load = _FakeLatency(scheduler, latency=0.5)
    scaled = []

    def scale_up():
        # Growing the ring brings client latency back under the mark.
        load.latency = 0.01
        load.shards += 1
        scaled.append(scheduler.now)

    scaler = _scaler(scheduler, load, scale_up)
    scaler.start()
    scheduler.run(until=10.0)
    assert scaled == [1.0], "one scale-up must absorb the latency spike"
    assert scaler.scale_ups_triggered == 1
    assert scaler.last_p95 == 0.01


def test_autoscaler_window_at_or_below_the_mark_never_scales():
    scheduler = Scheduler()
    load = _FakeLatency(scheduler, latency=0.05)  # exactly p95_up
    scaled = []
    scaler = _scaler(scheduler, load, lambda: scaled.append(1))
    scaler.start()
    scheduler.run(until=10.0)
    assert scaled == []
    assert scaler.last_p95 == 0.05


def test_autoscaler_respects_max_shards_and_busy():
    scheduler = Scheduler()
    load = _FakeLatency(scheduler, latency=0.5, shards=1)
    scaled = []
    scaler = _scaler(scheduler, load, lambda: scaled.append(1),
                     max_shards=1)
    scaler.start()
    scheduler.run(until=5.0)
    assert scaled == [], "a ring at max_shards must never grow"

    busy_scaler = _scaler(scheduler, load, lambda: scaled.append(1),
                          busy=lambda: True)
    busy_scaler.start()
    scheduler.run(until=10.0)
    assert scaled == [], "a migrating ring must not trigger another change"


def test_autoscaler_consumes_the_window_while_busy():
    scheduler = Scheduler()
    load = _FakeLatency(scheduler, latency=0.5)
    busy = [True]
    scaled = []
    scaler = _scaler(scheduler, load, lambda: scaled.append(scheduler.now),
                     busy=lambda: busy[0])
    scaler.start()
    scheduler.run(until=3.5)
    assert scaled == []
    assert len(load.consumed) == 3, "every busy tick reads the window"
    assert scaler.last_p95 == 0.5
    # The ring cools while still busy; once idle, the first window
    # holds only the cool interval, not the hot busy-era backlog.
    load.latency = 0.01
    scheduler.run(until=4.5)
    busy[0] = False
    scheduler.run(until=10.0)
    assert scaled == []
    assert scaler.last_p95 == 0.01


def test_autoscaler_waits_out_the_migration_as_cooldown():
    scheduler = Scheduler()
    load = _FakeLatency(scheduler, latency=0.5)
    started = []

    def fake_migration():
        yield Timeout(5.0)

    def scale_up():
        started.append(scheduler.now)
        return scheduler.spawn(fake_migration(), name="fake-migration")

    scaler = _scaler(scheduler, load, scale_up, max_shards=8)
    scaler.start()
    scheduler.run(until=9.0)
    assert started == [1.0, 7.0], \
        "the second trigger must wait out the first migration"
    # The migration-era window is dropped when it ends (6.0): the tick
    # after it (7.0) reads one interval of latency, not six.
    assert load.consumed[:3] == [200, 1200, 1400]


def test_autoscaler_rejects_bad_interval():
    with pytest.raises(ValueError):
        _scaler(Scheduler(), _FakeLatency(Scheduler(), 0.0), lambda: None,
                interval=0.0)


def test_mark_dirty_unconfirms_arcs():
    """The un-confirmation channel: dirty UIDs leave the confirmed set
    and the drain reports there was something to re-confirm."""
    ring = ShardRouter(["a", "b"], replicas=8)
    target = ring.clone()
    target.add_node("c")
    ring.transition = RingTransition(target, epoch=1)

    class _Node:  # the manager only touches scheduler.now here
        class scheduler:
            now = 0.0
        name = "coord"
        rpc = None
        sync_rpc = None
        sync_suffix = ""

    manager = ReshardManager(_Node, ring, replication=2)
    done = {"sys:1", "sys:2", "sys:3"}
    ring.transition.mark_dirty("sys:2")
    assert manager._unconfirm_dirty(done) is True
    assert done == {"sys:1", "sys:3"}
    assert ring.transition.dirty == set()
    assert manager._unconfirm_dirty(done) is False  # drained: nothing left


def test_a_copy_pass_waits_out_a_short_lived_source_lock():
    """A write-hot entry is locked at its source when the copy pass
    first reads it; the lock's write commits 30 ms later.  The pass
    retries the entry a pause later and copies it instead of deferring
    the whole pass."""
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    ring = ShardRouter(["shard-a", "shard-b"], replicas=8)
    target = ring.clone()
    target.add_node("shard-c")
    moved = frozenset(ring.moved_partitions(target, 1))
    uid = next(f"sys:{serial}" for serial in range(1, 1000)
               if ring.partition_of(f"sys:{serial}") in moved)
    dbs = {}
    for name in ("shard-a", "shard-b", "shard-c"):
        nic = net.attach(name)
        agent = RpcAgent(s, nic, demux=MessageDemux(nic))
        dbs[name] = GroupViewDatabase(partition_of=ring.partition_of)
        agent.register(SYNC_SERVICE_NAME, dbs[name])
    source = dbs[ring.preference_list(uid, 1)[0]]
    boot = AtomicAction()
    source.define_object(boot.id.path, uid, ["h1"], ["t1"])
    source.commit(boot.id.path)
    writer = AtomicAction()  # the live write holding the source's lock
    source.increment(writer.id.path, "binder", uid, ["h1"])
    read = source.read_entry_versioned_many

    def read_then_commit(uid_texts):
        # The first snapshot read finds the entry locked; the write
        # commits 30 ms after it.
        source.read_entry_versioned_many = read
        s.schedule(0.03, source.commit, writer.id.path)
        return read(uid_texts)

    source.read_entry_versioned_many = read_then_commit

    nic = net.attach("coord")

    class _Node:
        scheduler = s
        rpc = sync_rpc = RpcAgent(s, nic, default_timeout=0.5,
                                  demux=MessageDemux(nic))
        sync_suffix = ""

    ring.transition = RingTransition(target, epoch=target.epoch,
                                     partitions=moved)
    manager = ReshardManager(_Node, ring, replication=1)
    manager._moved = moved
    record = {"entries_copied": 0}
    converged = s.run_until_settled(
        s.spawn(manager._copy_pass(target, record, set())), until=10.0)
    assert converged is False  # copied: a later pass confirms it
    assert record["entries_copied"] == 1
    assert dbs["shard-c"].knows(uid)
