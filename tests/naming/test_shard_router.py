"""Tests for the consistent-hash shard ring."""

import pytest

import repro.naming.shard_router as shard_router_module
from repro.naming import ShardRouter
from repro.storage.uid import Uid

KEYS = [Uid("sys", n) for n in range(400)]


def test_single_node_owns_everything():
    router = ShardRouter(["only"])
    assert all(router.shard_for(key) == "only" for key in KEYS)


def test_routing_is_deterministic_across_instances():
    a = ShardRouter(["n0", "n1", "n2"], replicas=32)
    b = ShardRouter(["n0", "n1", "n2"], replicas=32)
    assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]


def test_node_order_does_not_matter():
    a = ShardRouter(["n0", "n1", "n2"])
    b = ShardRouter(["n2", "n0", "n1"])
    assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]


def test_every_shard_gets_a_share():
    router = ShardRouter([f"n{i}" for i in range(8)])
    spread = router.spread(KEYS)
    assert set(spread) == {f"n{i}" for i in range(8)}
    assert all(count > 0 for count in spread.values())
    assert sum(spread.values()) == len(KEYS)


def test_adding_a_node_only_moves_keys_to_it():
    before = ShardRouter(["n0", "n1", "n2"])
    old = {k: before.shard_for(k) for k in KEYS}
    before.add_node("n3")
    moved = 0
    for key in KEYS:
        now = before.shard_for(key)
        if now != old[key]:
            assert now == "n3", "a grown ring must not shuffle old shards"
            moved += 1
    assert 0 < moved < len(KEYS)  # n3 took some arcs, not the whole ring


def test_removing_a_node_only_moves_its_keys():
    router = ShardRouter(["n0", "n1", "n2", "n3"])
    old = {k: router.shard_for(k) for k in KEYS}
    router.remove_node("n1")
    for key in KEYS:
        if old[key] != "n1":
            assert router.shard_for(key) == old[key]
        else:
            assert router.shard_for(key) != "n1"


def test_spread_includes_idle_shards():
    router = ShardRouter([f"n{i}" for i in range(4)])
    spread = router.spread([])
    assert spread == {"n0": 0, "n1": 0, "n2": 0, "n3": 0}


def test_len_and_nodes():
    router = ShardRouter(["a", "b"])
    assert len(router) == 2
    assert router.nodes == ["a", "b"]


def _scripted_hashes(table):
    """A deterministic stand-in for the md5 ring hash."""
    def fake_hash(text):
        return table[text]
    return fake_hash


def test_colliding_ring_points_do_not_depend_on_insertion_order(monkeypatch):
    """Two virtual nodes hashing to the same 32-bit point must resolve
    to the same owner no matter which host joined the ring first."""
    table = {"a#0": 100, "b#0": 100, "k": 40}
    monkeypatch.setattr(shard_router_module, "_ring_hash",
                        _scripted_hashes(table))
    first = ShardRouter(["a", "b"], replicas=1)
    second = ShardRouter(["b", "a"], replicas=1)
    assert first.shard_for("k") == second.shard_for("k") == "a"
    assert first.preference_list("k", 2) == second.preference_list("k", 2)


def test_partition_starting_exactly_on_a_point_belongs_to_that_point(monkeypatch):
    """Regression: ``bisect`` (right) assigned an arc starting exactly
    on a ring point to the *next* owner clockwise instead of the
    point's own.  With partition routing the boundary in question is a
    partition's start point."""
    start_of_p1 = 1 << (32 - shard_router_module.DEFAULT_PARTITION_POWER)
    table = {"x#0": start_of_p1, "y#0": 300, "k": start_of_p1 + 5}
    monkeypatch.setattr(shard_router_module, "_ring_hash",
                        _scripted_hashes(table))
    router = ShardRouter(["x", "y"], replicas=1)
    assert router.partition_owner(1) == "x"
    assert router.shard_for("k") == "x"
    assert router.preference_list("k", 2) == ["x", "y"]


def test_preference_list_is_distinct_and_primary_first():
    router = ShardRouter([f"n{i}" for i in range(5)])
    for key in KEYS:
        for n in range(1, 6):
            prefs = router.preference_list(key, n)
            assert len(prefs) == n
            assert len(set(prefs)) == n
            assert prefs[0] == router.shard_for(key)
            # Growing n only appends: shorter lists are prefixes.
            assert prefs[:n - 1] == router.preference_list(key, n - 1) \
                if n > 1 else True


def test_preference_list_clamps_to_the_ring_size():
    router = ShardRouter(["a", "b"])
    for key in KEYS[:20]:
        assert sorted(router.preference_list(key, 7)) == ["a", "b"]
    with pytest.raises(ValueError):
        router.preference_list("k", 0)


def test_preference_lists_survive_ring_growth_mostly_unchanged():
    """Consistent hashing's stability extends to replica sets: adding a
    host only edits preference lists in the arcs it claimed."""
    router = ShardRouter(["n0", "n1", "n2", "n3"])
    before = {k: router.preference_list(k, 2) for k in KEYS}
    router.add_node("n4")
    changed = 0
    for key in KEYS:
        now = router.preference_list(key, 2)
        if now != before[key]:
            assert "n4" in now, \
                "a grown ring must not reshuffle unrelated replica sets"
            changed += 1
    assert 0 < changed < len(KEYS)


def test_invalid_configurations_rejected():
    with pytest.raises(ValueError):
        ShardRouter([])
    with pytest.raises(ValueError):
        ShardRouter(["a"], replicas=0)
    router = ShardRouter(["a", "b"])
    with pytest.raises(ValueError):
        router.add_node("a")
    with pytest.raises(ValueError):
        router.remove_node("zzz")
    router.remove_node("b")
    with pytest.raises(ValueError):
        router.remove_node("a")  # never drop the last shard


# -- ring views and the fence epoch ------------------------------------------


def test_fence_epoch_advances_on_every_routing_change():
    from repro.naming.shard_router import RingTransition

    router = ShardRouter(["a", "b"], replicas=8)
    fence = router.fence_epoch
    router.add_node("c")
    assert router.fence_epoch == fence + 1
    router.remove_node("c")
    assert router.fence_epoch == fence + 2
    target = router.clone()
    target.add_node("d")
    router.transition = RingTransition(target, epoch=target.epoch)
    assert router.fence_epoch == fence + 3, "staging must advance the fence"
    router.transition = None
    assert router.fence_epoch == fence + 4, "clearing must advance the fence"
    # Unlike ``epoch`` (a membership counter reset at boot), the fence
    # is monotonic for the router's lifetime.
    assert router.epoch == 2


def test_view_is_cached_per_fence_epoch():
    router = ShardRouter(["a", "b"], replicas=8)
    assert router.view() is router.view()
    before = router.view()
    router.add_node("c")
    after = router.view()
    assert after is not before
    assert after.epoch == router.fence_epoch


def test_view_is_immutable_across_the_flip():
    """A captured view keeps routing by the membership it snapshot --
    the *fence*, not the snapshot, is what stops it acting stale."""
    router = ShardRouter(["a", "b"], replicas=8)
    view = router.view()
    router.add_node("c")
    assert view.ring.nodes == ["a", "b"]
    assert set(router.view().ring.nodes) == {"a", "b", "c"}
    for key in range(40):
        assert view.write_set(key, 1)[0] in ("a", "b")
    assert view.epoch != router.fence_epoch


def test_view_write_set_and_read_order_during_a_transition():
    from repro.naming.shard_router import RingTransition

    router = ShardRouter(["a", "b", "c"], replicas=16)
    target = router.clone()
    target.add_node("d")
    router.transition = RingTransition(target, epoch=target.epoch)
    view = router.view()
    assert view.in_transition
    for key in range(60):
        old = router.preference_list(key, 2)
        union = view.write_set(key, 2)
        assert union[:len(old)] == old, "old owners come first"
        assert set(union) == set(old) | set(target.preference_list(key, 2))
        order = view.read_order(key, 2)
        assert order[:len(old)] == old, \
            "incoming owners must serve reads only as the last resort"
        rotated = view.read_order(key, 2, rotation=1)
        assert rotated[0] == old[1 % len(old)]
        assert set(rotated) == set(order)


def test_view_mark_dirty_reaches_the_live_transition():
    from repro.naming.shard_router import RingTransition

    router = ShardRouter(["a", "b"], replicas=8)
    target = router.clone()
    target.add_node("c")
    transition = RingTransition(target, epoch=target.epoch)
    router.transition = transition
    view = router.view()
    view.mark_dirty("sys:7")
    assert "sys:7" in transition.dirty
    # A view captured outside any transition reports nowhere.
    router.transition = None
    router.view().mark_dirty("sys:8")
    assert "sys:8" not in transition.dirty
