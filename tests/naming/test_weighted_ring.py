"""Unit tests for the weighted virtual-node + fixed-partition ring.

Three ring properties the naming layer leans on, checked directly:
determinism (weights included), balance (partition shares track
weights across partition powers), and stability (a weight change moves
no more partitions than :meth:`ShardRouter.movement_bound` predicts).
"""

import pytest

from repro.naming import shard_router as shard_router_module
from repro.naming.shard_router import ShardRouter

HOSTS = [f"host{i}" for i in range(8)]


def test_weighted_rings_are_deterministic():
    weights = {"host0": 2.0, "host3": 0.5}
    a = ShardRouter(HOSTS, weights=weights)
    b = ShardRouter(HOSTS, weights=dict(weights))
    assert a._ring == b._ring
    for partition in range(a.partition_count):
        assert (a.partition_preference(partition, 3)
                == b.partition_preference(partition, 3))


def test_routing_resolves_key_to_partition_to_owner():
    router = ShardRouter(HOSTS[:4])
    for key in (f"sys:{i}" for i in range(200)):
        partition = router.partition_of(key)
        assert 0 <= partition < router.partition_count
        assert router.shard_for(key) == router.partition_owner(partition)
        plist = router.preference_list(key, 3)
        assert plist == router.partition_preference(partition, 3)
        assert plist[0] == router.shard_for(key)
        assert len(set(plist)) == len(plist) == 3


def test_vnode_count_scales_with_weight():
    router = ShardRouter(["a", "b"], replicas=32,
                         weights={"a": 2.0, "b": 1.0})
    points = {"a": 0, "b": 0}
    for _point, owner in router._ring:
        points[owner] += 1
    assert points == {"a": 64, "b": 32}


def test_minimum_one_vnode_however_small_the_weight():
    router = ShardRouter(["a", "b"], replicas=8,
                         weights={"a": 1e-9, "b": 1.0})
    assert any(owner == "a" for _point, owner in router._ring)


@pytest.mark.parametrize("power", [6, 8, 10])
def test_equal_weights_balance_partitions(power):
    router = ShardRouter(HOSTS, partition_power=power, replicas=64)
    spread = router.partition_spread()
    assert sum(spread.values()) == router.partition_count
    mean = router.partition_count / len(HOSTS)
    # 64 vnodes/host keeps the max within ~2x of the mean at every
    # power -- coarse, but catches any systematic skew regression.
    assert max(spread.values()) <= 2.0 * mean
    assert min(spread.values()) > 0


def test_heavier_hosts_own_proportionally_more_partitions():
    router = ShardRouter(["small", "big"], partition_power=10, replicas=128,
                         weights={"small": 1.0, "big": 3.0})
    spread = router.partition_spread()
    share = spread["big"] / router.partition_count
    assert 0.6 <= share <= 0.9  # ~0.75 expected at weight ratio 3:1


def test_weight_change_moves_bounded_partitions():
    router = ShardRouter(HOSTS, partition_power=10, replicas=64)
    target = router.clone()
    target.set_weight("host2", 1.25)
    moved = router.moved_partitions(target, 2)
    bound = router.movement_bound(target, 2)
    assert len(moved) <= bound
    # A 25% weight bump on one of eight hosts must not reshuffle the
    # ring wholesale.
    assert bound < router.partition_count
    assert len(moved) < router.partition_count // 2


def test_moved_partitions_is_the_exact_preference_diff():
    router = ShardRouter(HOSTS[:4], partition_power=8)
    target = router.clone()
    target.add_node("host9")
    moved = router.moved_partitions(target, 2)
    for partition in range(router.partition_count):
        changed = (router.partition_preference(partition, 2)
                   != target.partition_preference(partition, 2))
        assert (partition in moved) == changed
    assert len(moved) <= router.movement_bound(target, 2)


def test_unchanged_rings_move_nothing():
    router = ShardRouter(HOSTS[:4])
    target = router.clone()
    assert router.moved_partitions(target, 3) == set()
    assert router.movement_bound(target, 3) == 0


def test_partition_power_mismatch_rejected():
    a = ShardRouter(["x", "y"], partition_power=8)
    b = ShardRouter(["x", "y"], partition_power=9)
    with pytest.raises(ValueError):
        a.moved_partitions(b, 2)
    with pytest.raises(ValueError):
        a.movement_bound(b, 2)
    with pytest.raises(ValueError):
        ShardRouter(["x"], partition_power=0)
    with pytest.raises(ValueError):
        ShardRouter(["x"], partition_power=17)


def test_set_weight_flushes_memo_and_bumps_fence():
    router = ShardRouter(HOSTS[:4], partition_power=6)
    before = router.preference_list("sys:1", 2)
    assert router._plist_cache  # the walk memoized
    fence = router.fence_epoch
    epoch = router.epoch
    router.set_weight("host1", 4.0)
    assert router._plist_cache == {}
    assert router.fence_epoch > fence
    assert router.epoch > epoch
    after = router.preference_list("sys:1", 2)
    assert len(set(after)) == 2  # still a valid distinct-host walk
    assert before == ShardRouter(HOSTS[:4], partition_power=6
                                 ).preference_list("sys:1", 2)


def test_tiny_weight_change_without_vnode_delta_still_fences():
    router = ShardRouter(HOSTS[:4], replicas=4)
    fence = router.fence_epoch
    # 4 vnodes at weight 1.0 and at 1.05 round to the same count, but
    # observers still get the one rule: weight changed => epoch moved.
    router.set_weight("host0", 1.05)
    assert router.fence_epoch > fence
    assert router.weight_of("host0") == 1.05
    fence = router.fence_epoch
    router.set_weight("host0", 1.05)  # true no-op: same value
    assert router.fence_epoch == fence


def test_invalid_weights_rejected():
    router = ShardRouter(["a", "b"])
    with pytest.raises(ValueError):
        router.set_weight("a", 0.0)
    with pytest.raises(ValueError):
        router.set_weight("ghost", 1.0)
    with pytest.raises(ValueError):
        router.add_node("c", weight=-1.0)
    with pytest.raises(ValueError):
        ShardRouter(["a"], weights={"a": 0.0})


def test_clone_carries_weights_and_partition_power():
    router = ShardRouter(HOSTS[:3], partition_power=9,
                         weights={"host1": 2.0})
    dup = router.clone()
    assert dup.partition_power == 9
    assert dup._weights == router._weights
    assert dup._ring == router._ring
    dup.set_weight("host1", 1.0)
    assert router.weight_of("host1") == 2.0  # no shared state


def test_remove_node_drops_its_weight():
    router = ShardRouter(["a", "b"], weights={"b": 2.0})
    router.remove_node("b")
    assert "b" not in router._weights
    with pytest.raises(ValueError):
        router.weight_of("b")


def test_ring_hash_memo_is_bounded():
    assert shard_router_module._ring_hash.cache_info().maxsize is not None


def test_partition_spread_includes_zero_owners():
    # One dominant host at a tiny partition power can starve another;
    # the histogram must still list every host.
    router = ShardRouter(["a", "b", "c"], partition_power=1, replicas=64)
    spread = router.partition_spread()
    assert set(spread) == {"a", "b", "c"}
    assert sum(spread.values()) == 2


def test_preference_list_size_validation():
    router = ShardRouter(["a", "b"])
    with pytest.raises(ValueError):
        router.preference_list("k", 0)
    with pytest.raises(ValueError):
        router.partition_preference(-1, 1)
    with pytest.raises(ValueError):
        router.partition_owner(router.partition_count)
