"""Unit tests for the virtual-node + fixed-partition ring.

Three ring properties the naming layer leans on, checked directly:
determinism (a ring is a function of its host names, replica count and
partition power), balance (partition shares stay near-even across
partition powers), and stability (a host add or drain moves no more
partitions than :meth:`ShardRouter.movement_bound` predicts).
"""

import pytest

from repro.naming import shard_router as shard_router_module
from repro.naming.shard_router import ShardRouter

HOSTS = [f"host{i}" for i in range(8)]


def test_rings_are_deterministic():
    """Same names, same ring -- also when one ring reached its
    membership by an add and a drain instead of at boot."""
    a = ShardRouter(HOSTS)
    b = ShardRouter(HOSTS[:7] + ["host9"])
    b.add_node("host7")
    b.remove_node("host9")
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


@pytest.mark.parametrize("change", ["add", "drain"])
def test_host_add_or_drain_moves_bounded_partitions(change):
    router = ShardRouter(HOSTS, partition_power=10, replicas=64)
    target = router.clone()
    if change == "add":
        target.add_node("host8")
    else:
        target.remove_node("host2")
    moved = router.moved_partitions(target, 2)
    bound = router.movement_bound(target, 2)
    assert 0 < len(moved) <= bound
    # One host joining or leaving a ring of eight must not reshuffle
    # the ring wholesale.
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
    """Also a host added and drained again: the ring is as it was."""
    router = ShardRouter(HOSTS[:4])
    target = router.clone()
    assert router.moved_partitions(target, 3) == set()
    assert router.movement_bound(target, 3) == 0
    target.add_node("host9")
    target.remove_node("host9")
    assert router.moved_partitions(target, 3) == set()
    assert router.movement_bound(target, 3) == 0


def test_partition_power_mismatch_rejected():
    a = ShardRouter(["x", "y"], partition_power=8)
    b = ShardRouter(["x", "y", "z"], partition_power=9)
    with pytest.raises(ValueError):
        a.moved_partitions(b, 2)
    with pytest.raises(ValueError):
        a.movement_bound(b, 2)
    with pytest.raises(ValueError):
        ShardRouter(["x"], partition_power=0)
    with pytest.raises(ValueError):
        ShardRouter(["x"], partition_power=17)


def test_clone_carries_membership_and_partition_power():
    router = ShardRouter(HOSTS[:3], partition_power=9)
    dup = router.clone()
    assert dup.partition_power == 9
    assert dup.nodes == router.nodes
    assert dup._ring == router._ring
    dup.add_node("host3")
    dup.remove_node("host1")
    assert router.nodes == HOSTS[:3]  # no shared state
    assert router._ring == ShardRouter(HOSTS[:3], partition_power=9)._ring


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
