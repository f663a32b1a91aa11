"""Unit tests for entry placement on the shard ring.

``ShardRouter.place`` gives a key its partition when it is defined: the
least-loaded replica set, then the nearest partition clockwise of the
key's hash partition whose preference list is exactly that set.  These
tests pin the balance it promises, that it is deterministic and
append-only, and that the ring itself -- partition ownership, the moved
set, the movement bound -- is exactly what it was without placement.
"""

import math
import sys
from collections import Counter

import pytest

from repro.naming import shard_router as shard_router_module
from repro.naming.shard_router import ShardRouter

HOSTS = [f"namenode{i}" for i in range(8)]


def _placed(hosts, keys, n):
    router = ShardRouter(hosts)
    for key in keys:
        router.place(key, n)
    return router


def _loads(router, keys, n):
    primary = Counter(router.shard_for(key) for key in keys)
    replica = Counter(node for key in keys
                      for node in router.preference_list(key, n))
    return primary, replica


@pytest.mark.parametrize("hosts, n, count", [
    (4, 1, 32), (4, 2, 32), (3, 2, 12), (5, 2, 37), (8, 1, 24),
    (8, 2, 24), (8, 3, 100), (4, 2, 1024)])
def test_placement_balances_primaries_and_replicas(hosts, n, count):
    keys = [f"sys:{i}" for i in range(count)]
    router = _placed(HOSTS[:hosts], keys, n)
    primary, replica = _loads(router, keys, n)
    assert max(primary.values()) == math.ceil(count / hosts)
    assert max(replica.values()) == math.ceil(count * n / hosts)


def test_hashing_alone_does_not_balance_the_same_keys():
    """The reason placement exists: 32 uids hashed onto four hosts."""
    keys = [f"sys:{i}" for i in range(32)]
    hashed = ShardRouter(HOSTS[:4])
    assert max(Counter(hashed.shard_for(key) for key in keys).values()) > 8


def test_two_routers_with_the_same_names_and_order_agree():
    keys = [f"sys:{i}" for i in range(200)]
    a = _placed(HOSTS[:5], keys, 2)
    b = _placed(HOSTS[:5], keys, 2)
    assert [a.partition_of(key) for key in keys] == \
        [b.partition_of(key) for key in keys]


def test_place_is_idempotent():
    router = ShardRouter(HOSTS[:4])
    first = [router.place(f"sys:{i}", 2) for i in range(40)]
    again = [router.place(f"sys:{i}", 2) for i in range(40)]
    assert first == again
    assert sum(router._placements.counts.values()) == 40


def test_an_undefined_key_routes_by_hash():
    router = _placed(HOSTS[:4], [f"sys:{i}" for i in range(64)], 2)
    bare = ShardRouter(HOSTS[:4])
    for key in ("never-defined", "sys:9999"):
        assert router.partition_of(key) == bare.partition_of(key)
        assert router.preference_list(key, 2) == bare.preference_list(key, 2)


def test_only_keys_that_left_their_hash_partition_are_recorded():
    keys = [f"sys:{i}" for i in range(64)]
    router = _placed(HOSTS[:4], keys, 2)
    bare = ShardRouter(HOSTS[:4])
    for key in keys:
        moved = router.partition_of(key) != bare.partition_of(key)
        assert (key in router._placements.moved) == moved


def test_a_partition_survives_every_ring_change_and_clone():
    keys = [f"sys:{i}" for i in range(64)]
    router = _placed(HOSTS[:4], keys, 2)
    before = {key: router.partition_of(key) for key in keys}
    dup = router.clone()
    router.add_node("namenode4")
    router.remove_node("namenode1")
    dup.remove_node("namenode0")
    for ring in (router, dup):
        assert {key: ring.partition_of(key) for key in keys} == before


def test_clones_share_one_table():
    router = ShardRouter(HOSTS[:4])
    view = router.view().ring  # a clone captured before the defines
    placed = [router.place(f"sys:{i}", 2) for i in range(20)]
    assert [view.partition_of(f"sys:{i}") for i in range(20)] == placed


def test_a_define_after_a_reshard_counts_against_the_live_ring():
    """The newcomer inherits whole partitions, keys and all: each later
    define goes to a host that is least loaded on the ring as it is."""
    defined = [f"sys:{i}" for i in range(30)]
    router = _placed(HOSTS[:3], defined, 2)
    router.place("sys:warm", 2)  # loads derived before the change
    defined.append("sys:warm")
    router.add_node("namenode3")
    for i in range(30, 40):
        live = Counter(router.shard_for(key) for key in defined)
        least = min(live.get(node, 0) for node in router.nodes)
        key = f"sys:{i}"
        router.place(key, 2)
        assert live.get(router.shard_for(key), 0) == least
        defined.append(key)


def test_moved_set_and_movement_bound_ignore_placements():
    keys = [f"sys:{i}" for i in range(256)]
    placed = _placed(HOSTS[:4], keys, 2)
    bare = ShardRouter(HOSTS[:4])
    for change in (lambda ring: ring.add_node("namenode4"),
                   lambda ring: ring.remove_node("namenode0")):
        targets = []
        for ring in (placed, bare):
            target = ring.clone()
            change(target)
            targets.append(target)
        assert (placed.moved_partitions(targets[0], 2)
                == bare.moved_partitions(targets[1], 2))
        assert (placed.movement_bound(targets[0], 2)
                == bare.movement_bound(targets[1], 2))


def test_placing_1024_keys_stays_within_its_python_call_budget():
    """Guards ``setup_s``: a define costs eight frames (four of them
    the primary choice's key function), and the partitions are walked
    once per ring epoch, never per key.  8,526 call events on python
    3.11 with the hash memo cold; one more frame per key fails, and a
    scan over the 256 partitions per key would be hundreds of
    thousands."""
    router = ShardRouter(HOSTS[:4])
    keys = [f"budget:{i}" for i in range(1024)]
    shard_router_module._ring_hash.cache_clear()
    calls = []

    def on_event(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(on_event)
    try:
        for key in keys:
            router.place(key, 2)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 9000, Counter(calls).most_common(8)
