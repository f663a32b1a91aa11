"""S4 -- the two-plane network and the weighted partition ring.

Replica maintenance -- resync after a crash, the anti-entropy sweep,
migration copy passes, read repair -- is background work, but on a
single NIC it queues in the *same* single-server queues as client
binding requests: a recovering host's full-arc resync is a latency
storm every client feels.  ``dedicated_sync_nic`` gives every shard
host a second interface (``<name>.sync``) carrying all of that
maintenance traffic, so the client plane only ever queues client work.

Experiment 1 runs the same closed-loop workload -- aggressive
anti-entropy plus a mid-run shard-host outage whose recovery triggers
a full-arc resync -- against both topologies.  The acceptance shape:

- client p95 latency is materially lower with the dedicated sync NIC
  at the same offered load;
- the correctness ledger is clean either way (zero lost, zero stale
  bindings): isolation costs nothing;
- the traffic meters prove the split (sync-plane RPCs are zero when
  shared -- they *are* the client-plane excess).

Experiment 2 measures the weighted ring itself, no simulation needed:
partition balance across heterogeneous host weights (max/mean load),
and the bounded-movement contract -- a weight change moves no more
partitions than :meth:`ShardRouter.movement_bound` predicts from the
weight delta.
"""

import pytest

from repro.naming.shard_router import ShardRouter
from repro.workload import Table, sweep
from repro.workload.scenarios import clean, run

from benchmarks.common import once

PLANES = [False, True]


@pytest.mark.benchmark(group="sync_plane")
def test_dedicated_sync_nic_shields_client_tail_latency(benchmark):
    def experiment():
        return sweep(PLANES, lambda d: run("sync_plane",
                                           dedicated_sync_nic=d),
                     label="dedicated")

    rows = once(benchmark, experiment)

    table = Table("S4a: client latency under a resync storm, shared vs "
                  "dedicated sync NIC (3 shards x2, 6 clients, "
                  "host down 2s-6s)",
                  ["sync NIC", "commit rate", "p50", "p95", "p99",
                   "throughput", "sync-plane rpcs", "lost", "stale"])
    for row in rows:
        table.add_row("dedicated" if row["dedicated"] else "shared",
                      row["commit_rate"], row["p50_latency"],
                      row["p95_latency"], row["p99_latency"],
                      row["throughput"], row["sync_plane_rpcs"],
                      row["lost_bindings"], row["stale_bindings"])
    table.show()

    shared, dedicated = rows
    for row in rows:
        # Zero lost, zero stale, and the traffic meters prove the split
        # (shared mode has no sync plane to meter).
        assert clean("sync_plane", row) == [], row["dedicated"]
        assert row["commit_rate"] == 1.0
        assert row["entries_refreshed"] > 0, \
            "the outage must actually force a resync copy pass"
    # The headline: the dedicated NIC takes the maintenance storm out
    # of the client tail at the same offered load.
    assert dedicated["p95_latency"] < shared["p95_latency"], (
        f"dedicated sync NIC must lower client p95: "
        f"{dedicated['p95_latency']:.4f} vs {shared['p95_latency']:.4f}")
    assert dedicated["throughput"] >= shared["throughput"] * 0.95


@pytest.mark.benchmark(group="sync_plane")
def test_weighted_ring_balance_and_bounded_movement(benchmark):
    def experiment():
        hosts = [f"namenode{i}" for i in range(6)]
        weights = {"namenode0": 2.0, "namenode1": 0.5}

        def balance_row(label, router):
            spread = router.partition_spread()
            total_weight = sum(router.weight_of(n) for n in router.nodes)
            worst = max(
                spread[n] / (router.partition_count
                             * router.weight_of(n) / total_weight)
                for n in router.nodes)
            return {
                "ring": label,
                "partitions": router.partition_count,
                "max_partitions": max(spread.values()),
                "mean_partitions": (router.partition_count
                                    / len(router.nodes)),
                "max_over_fair_share": worst,
                "spread": spread,
            }

        uniform = ShardRouter(hosts, partition_power=10)
        weighted = ShardRouter(hosts, partition_power=10, weights=weights)
        rows = [balance_row("uniform", uniform),
                balance_row("weighted 2.0/0.5", weighted)]

        # The movement contract: re-weight one live host and compare
        # the exact staged diff against the analytic cap.
        target = weighted.clone()
        target.set_weight("namenode2", 1.5)
        moved = weighted.moved_partitions(target, 2)
        movement = {
            "change": "namenode2: 1.0 -> 1.5",
            "partitions_total": weighted.partition_count,
            "partitions_moved": len(moved),
            "movement_bound": weighted.movement_bound(target, 2),
        }
        return {"balance": rows, "movement": movement}

    result = once(benchmark, experiment)

    table = Table("S4b: weighted ring balance (1024 partitions, 6 hosts)",
                  ["ring", "max partitions", "fair mean",
                   "max / fair share"])
    for row in result["balance"]:
        table.add_row(row["ring"], row["max_partitions"],
                      row["mean_partitions"], row["max_over_fair_share"])
    table.show()

    movement = result["movement"]
    moved_table = Table("S4b: bounded movement on a weight change",
                        ["change", "moved", "total", "predicted bound"])
    moved_table.add_row(movement["change"], movement["partitions_moved"],
                        movement["partitions_total"],
                        movement["movement_bound"])
    moved_table.show()

    for row in result["balance"]:
        # Every host's partition share stays within 2x its weight's
        # fair share -- the vnode count is what buys this.
        assert row["max_over_fair_share"] <= 2.0, row
    assert 0 < movement["partitions_moved"] <= movement["movement_bound"], \
        "a weight change must move something, and no more than predicted"
    assert movement["movement_bound"] < movement["partitions_total"], \
        "the predicted movement must be a real bound, not 'everything'"
