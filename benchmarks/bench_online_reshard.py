"""S3 -- online resharding: growing and shrinking the ring under load.

PR 1's ring scaled the name service and PR 2 made it survive crashes,
but membership was still fixed at boot: absorbing a load spike meant a
restart.  This experiment shows the ReshardManager doing the Swift
ring-builder's job live: a 2->4 scale-out and a 4->2 drain, each run
under a sustained closed-loop binding workload, with the moving arcs
copied under dual-ownership routing, the epoch flipped atomically, and
the old owners garbage-collected -- while every transaction keeps
committing.

Since the epoch-fenced replica plane landed there is no settle
interval anywhere in the pipeline: servers reject requests routed by a
pre-transition ring view (``StaleRingEpoch``) and clients re-route,
so the migration starts copying immediately -- the scale-out completes
faster, and correctness rides the fence instead of a timer.  The
``plan=True`` rows (one is a CI smoke case) exercise the multi-host
``plan_rebalance``: 2->4 in *one* staged epoch.

The acceptance shape (the row's correctness ledger must be all zeros):

- **zero lost bindings** -- every committed counter increment is in
  the final value (no moved arc dropped a write);
- **zero stale-served bindings** -- no final value exceeds its
  committed count (no aborted attempt's effect survived via a stale
  copy);
- **zero aborted-for-routing** -- no transaction died because the
  ring sent it somewhere that could not serve it;
- post-migration throughput must beat the pre-migration plateau for
  the scale-out (that is what the new hosts are *for*), and the drain
  must land back at a 2-shard-plateau-compatible rate without paying
  any of the above.
"""

import pytest

from repro.workload import Table
from repro.workload.scenarios import clean, run

from benchmarks.common import once

LOAD = dict(txns_per_client=60, reshard_at=4.0)


def _phase_table(title, row, before, after):
    table = Table(title, ["phase", "throughput (txn/s)", "lost", "stale",
                          "routing aborts"])
    table.add_row(f"before ({before} shards)", row["throughput_before"],
                  "-", "-", "-")
    table.add_row("during migration", row["throughput_during"], "-", "-", "-")
    table.add_row(f"after ({after} shards)", row["throughput_after"],
                  row["lost_bindings"], row["stale_bindings"],
                  row["aborted_for_routing"])
    table.show()


@pytest.mark.benchmark(group="online_reshard")
def test_scale_out_absorbs_load_without_losing_bindings(benchmark):
    def experiment():
        return run("online_reshard", **LOAD)

    row = once(benchmark, experiment)
    _phase_table("S3: 2->4 scale-out under sustained load "
                 "(24 clients, independent scheme; run p95/p99 "
                 f"{row['p95_latency']:.3f}/{row['p99_latency']:.3f}s)",
                 row, 2, 4)

    assert clean("online_reshard", row) == []
    assert row["shards_after"] == 4, row
    assert row["epochs"] == 2, row
    # The whole point of elastic growth: the 4-shard plateau must beat
    # the 2-shard plateau the system scaled away from.
    assert row["throughput_after"] > row["throughput_before"], row
    # ...and the migration itself must not collapse service while the
    # arcs move (dual-ownership writes keep committing throughout).
    assert row["throughput_during"] > 0.5 * row["throughput_before"], row


@pytest.mark.benchmark(group="online_reshard")
def test_multi_host_plan_rebalance_is_one_epoch(benchmark):
    """The rebalance plan: 2->4 in a single staged transition -- one
    dual-ownership window, one copy pipeline, one flip -- with the same
    all-zeros ledger the per-host path must show."""
    def experiment():
        return run("online_reshard", plan=True, **LOAD)

    row = once(benchmark, experiment)
    _phase_table("S3: 2->4 plan_rebalance (one epoch) under load", row, 2, 4)

    assert clean("online_reshard", row) == []
    assert row["shards_after"] == 4, row
    assert row["epochs"] == 1, \
        "a plan moves every host in ONE migration epoch"
    assert row["throughput_after"] > row["throughput_before"], row
    assert row["throughput_during"] > 0.5 * row["throughput_before"], row


@pytest.mark.benchmark(group="online_reshard")
def test_drain_returns_capacity_without_losing_bindings(benchmark):
    def experiment():
        return run("online_reshard", initial_shards=4, target_shards=2,
                   **LOAD)

    row = once(benchmark, experiment)
    _phase_table("S3: 4->2 drain under sustained load", row, 4, 2)

    assert clean("online_reshard", row) == []
    assert row["shards_after"] == 2, row
    assert row["epochs"] == 2, row
    # Draining trades capacity away on purpose; what it must never
    # trade away is a binding.
    assert row["throughput_during"] > 0, row
    assert row["throughput_after"] > 0, row

