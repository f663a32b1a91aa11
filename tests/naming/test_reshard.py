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
from repro.naming.shard_router import RingTransition
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
    assert db.guarded_install_entry(uid_text, ["h2"], {"h2": {}}, ["h2"],
                                    (9, 9)) is None
    db.abort(holder.id.path)
    assert db.guarded_install_entry(uid_text, ["h2"], {"h2": {}}, ["h2"],
                                    (9, 9)) is True
    assert db.get_binding((0,), uid_text, (0,)) == (["h2"], ["h2"])


def test_guarded_install_entry_is_version_gated():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    # Same-or-older versions must not land (fresh-over-stale only).
    assert db.guarded_install_entry(uid_text, ["h9"], {"h9": {}}, ["h9"],
                                    (1, 1)) is False
    assert db.get_binding((0,), uid_text, (0,)) == (["h1"], ["h1"])


def test_forget_entry_removes_both_halves():
    db = GroupViewDatabase()
    uid_text = _committed_entry(db)
    assert db.forget_entry(uid_text) is True
    assert not db.knows(uid_text)
    assert db.entry_versions(uid_text) == (0, 0)
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


class _FakeLoad:
    """A scripted cumulative-ops sampler."""

    def __init__(self, rates):
        self.rates = rates  # ops/s per shard, applied per sample call
        self.totals = {name: 0.0 for name in rates}
        self.clock = None

    def sample(self):
        if self.clock is not None:
            now = self.clock()
            for name, rate in self.rates.items():
                self.totals[name] = rate * now
        return dict(self.totals)


def test_autoscaler_triggers_on_sustained_per_shard_load():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 500.0, "b": 500.0})
    load.clock = lambda: scheduler.now
    scaled = []

    def scale_up():
        # Growing the ring dilutes per-shard load below the threshold.
        load.rates = {"a": 50.0, "b": 50.0, "c": 50.0}
        load.totals["c"] = 0.0
        scaled.append(scheduler.now)

    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=scale_up, interval=1.0,
                             ops_per_shard=200.0, max_shards=4)
    scaler.start()
    scheduler.run(until=10.0)
    assert len(scaled) == 1, "one scale-up must absorb the load spike"
    assert scaler.last_rate_per_shard < 200.0
    assert scaler.samples_taken >= 5


def test_autoscaler_respects_max_shards_and_busy():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 500.0})
    load.clock = lambda: scheduler.now
    scaled = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: scaled.append(1), interval=1.0,
                             ops_per_shard=100.0, max_shards=1)
    scaler.start()
    scheduler.run(until=5.0)
    assert scaled == [], "a ring at max_shards must never grow"

    busy_scaler = ShardAutoscaler(scheduler, sample=load.sample,
                                  scale_up=lambda: scaled.append(1),
                                  interval=1.0, ops_per_shard=100.0,
                                  max_shards=4, busy=lambda: True)
    busy_scaler.start()
    scheduler.run(until=10.0)
    assert scaled == [], "a migrating ring must not trigger another change"


def test_autoscaler_waits_out_the_migration_as_cooldown():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 500.0})
    load.clock = lambda: scheduler.now
    started = []

    def fake_migration():
        yield Timeout(5.0)

    def scale_up():
        started.append(scheduler.now)
        return scheduler.spawn(fake_migration(), name="fake-migration")

    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=scale_up, interval=1.0,
                             ops_per_shard=100.0, max_shards=8)
    scaler.start()
    scheduler.run(until=7.0)
    assert len(started) >= 1
    if len(started) > 1:
        assert started[1] - started[0] >= 5.0, \
            "the second trigger must wait out the first migration"


def test_autoscaler_stop_ends_the_loop():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 500.0})
    scaled = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: scaled.append(1), interval=1.0,
                             ops_per_shard=100.0)
    scaler.start()
    scaler.stop()
    scheduler.run(until=5.0)
    assert scaled == []


def test_autoscaler_rejects_bad_interval():
    with pytest.raises(ValueError):
        ShardAutoscaler(Scheduler(), sample=dict, scale_up=lambda: None,
                        interval=0.0)


def test_mark_dirty_unconfirms_arcs():
    """The un-confirmation channel: dirty UIDs leave the confirmed set
    and the drain reports there was something to re-confirm."""
    from repro.naming import ReshardManager

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


def test_autoscaler_scale_down_needs_a_full_quiet_cooldown():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 1.0, "b": 0.0, "c": 2.0})
    load.clock = lambda: scheduler.now
    drained = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: None, interval=1.0,
                             ops_per_shard=200.0,
                             scale_down=drained.append,
                             low_ops_per_shard=50.0,
                             min_shards=2, down_after=3)
    scaler.start()
    scheduler.run(until=2.5)
    assert drained == [], "two quiet samples are not a cooldown"
    scheduler.run(until=10.0)
    assert drained, "a full quiet cooldown must trigger the drain"
    assert drained[0] == "b", "the least-loaded host is the victim"


def test_autoscaler_scale_down_respects_min_shards():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 0.0, "b": 0.0})
    load.clock = lambda: scheduler.now
    drained = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: None, interval=1.0,
                             ops_per_shard=200.0,
                             scale_down=drained.append,
                             low_ops_per_shard=50.0,
                             min_shards=2, down_after=2)
    scaler.start()
    scheduler.run(until=10.0)
    assert drained == [], "a ring at min_shards must never drain"


def test_autoscaler_quiet_streak_resets_on_a_loud_sample():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 10.0, "b": 10.0, "c": 10.0})
    load.clock = lambda: scheduler.now
    drained = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: None, interval=1.0,
                             ops_per_shard=200.0,
                             scale_down=drained.append,
                             low_ops_per_shard=50.0,
                             min_shards=2, down_after=3)
    scaler.start()

    def spike():
        # One loud sample mid-cooldown: every shard jumps for a second.
        load.rates = {"a": 500.0, "b": 500.0, "c": 500.0}
        scheduler.schedule(1.0, lambda: load.rates.update(
            {"a": 10.0, "b": 10.0, "c": 10.0}))

    scheduler.schedule(2.5, spike)
    scheduler.run(until=4.5)
    assert drained == [], "the spike must restart the quiet streak"
    scheduler.run(until=10.0)
    assert drained, "quiet re-sustained past the spike drains again"


def test_autoscaler_hysteresis_rejects_overlapping_watermarks():
    with pytest.raises(ValueError):
        ShardAutoscaler(Scheduler(), sample=dict, scale_up=lambda: None,
                        ops_per_shard=100.0, low_ops_per_shard=60.0,
                        scale_down=lambda name: None)


def test_autoscaler_busy_freezes_the_quiet_streak():
    scheduler = Scheduler()
    load = _FakeLoad({"a": 0.0, "b": 0.0, "c": 0.0})
    load.clock = lambda: scheduler.now
    drained = []
    scaler = ShardAutoscaler(scheduler, sample=load.sample,
                             scale_up=lambda: None, interval=1.0,
                             ops_per_shard=200.0,
                             scale_down=drained.append,
                             low_ops_per_shard=50.0,
                             min_shards=2, down_after=2,
                             busy=lambda: True)
    scaler.start()
    scheduler.run(until=10.0)
    assert drained == [], "a migrating ring must not also drain"
