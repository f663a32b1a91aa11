"""S6 -- the raw-speed commit plane: batched 2PC and group commit.

The commit protocol pays a full per-action message round to every
enlisted store: ``write_shadow`` at prepare, ``commit_shadow`` (plus a
durable log force) at commit.  Those per-action RPCs -- not the
simulated hardware -- are the write-throughput floor: a store host's
single-server queue charges one service time per message however small
the message is.  The ``CommitBatcher`` coalesces concurrent actions'
same-phase calls to one target into a single ``*_many`` RPC with
per-action outcome demux, and ``log_force_interval`` lets co-arriving
durable forces share one simulated log write -- so a batch of N
actions pays one service-time/log charge where the baseline pays N.

Experiment 1 is the headline: the identical closed loop (256 client
streams over 8 store hosts behind an 8-shard name service, equal
offered load) with the batched plane off and on.  Acceptance shape:

- >= 3x committed write throughput with batching on;
- commit rate 1.0 in both rows -- coalescing changes message count,
  never outcomes;
- the group-commit meter proves the log amortization (far fewer
  forces than committed actions).

Experiment 2 is the crash-mid-batch ledger: one store host dies in the
middle of the batched run (``replication=2``), so in-flight batches
die mid-window and the coordinator demuxes the failure per action.
The re-read ledger must show zero lost and zero stale bindings.

Experiment 3 is the scale row the simulator flattening bought: 10^5
offered transactions through the batched plane, finishing inside the
perf gate's wall-clock budget (``check_regression.py`` enforces the
150 s cap on this module's recorded wall time).
"""

import pytest

from repro.workload import Table
from repro.workload.scenarios import clean, run

from benchmarks.common import once


@pytest.mark.benchmark(group="commit_batching")
def test_batched_2pc_triples_write_throughput(benchmark):
    def experiment():
        return [run("commit_batching", batching=batching)
                for batching in (False, True)]

    rows = once(benchmark, experiment)

    table = Table("S6a: write throughput, batched commit plane off vs on "
                  "(8 shards, 8 store hosts, 256 streams, equal load)",
                  ["batching", "offered", "commit rate", "throughput",
                   "p95 (s)", "p99 (s)", "mean batch", "log forces"])
    for row in rows:
        table.add_row("on" if row["batching"] else "off", row["offered"],
                      row["commit_rate"], row["throughput"],
                      row["p95_latency"], row["p99_latency"],
                      row["mean_batch_size"], row["log_forces"])
    table.show()

    off, on = rows
    assert off["offered"] == on["offered"], "rows must offer equal load"
    for row in rows:
        # Coalescing must not change outcomes.
        assert clean("commit_batching", row) == [], row["batching"]
    # The batcher must actually engage: multi-action batches, and the
    # group-commit log must absorb most per-action forces.
    assert on["batched_items"] > 0 and on["mean_batch_size"] > 2.0, on
    assert on["log_forces"] < on["committed"] // 2, \
        f"group commit must amortize log forces: {on}"
    assert off["batched_items"] == 0
    # The headline: past the per-action RPC floor at equal offered load.
    assert on["throughput"] >= 3.0 * off["throughput"], (
        f"batched commit plane must buy >= 3x write throughput: "
        f"{on['throughput']:.0f} vs {off['throughput']:.0f} txn/s")


@pytest.mark.benchmark(group="commit_batching")
def test_crash_mid_batch_holds_the_ledger(benchmark):
    def experiment():
        return run("commit_batching", clients=2, streams_per_client=32,
                   txns_per_stream=8, replication=2, churn=True,
                   rpc_timeout=0.3)

    row = once(benchmark, experiment)

    table = Table("S6b: store-host crash mid-batch "
                  "(replication 2, host down 0.4s-1.2s)",
                  ["crashed host", "offered", "committed", "mean batch",
                   "lost", "stale"])
    table.add_row(row["crashed_host"], row["offered"], row["committed"],
                  row["mean_batch_size"], row["lost_bindings"],
                  row["stale_bindings"])
    table.show()

    # Batches were in flight when the host died, and the demux kept
    # every batchmate's outcome correct: the victim's failure is
    # excluded per entry, never spread batch-wide.
    assert clean("commit_batching", row) == []


@pytest.mark.benchmark(group="commit_batching")
def test_hundred_thousand_offered_ops_fit_the_wall_budget(benchmark):
    def experiment():
        return run("commit_batching", txns_per_stream=400)

    row = once(benchmark, experiment)

    table = Table("S6c: 10^5 offered transactions through the batched "
                  "plane (the flattened-simulator scale row)",
                  ["offered", "committed", "throughput", "mean batch",
                   "rpcs sent"])
    table.add_row(row["offered"], row["committed"], row["throughput"],
                  row["mean_batch_size"], row["rpcs_sent"])
    table.show()

    assert row["offered"] >= 100_000, row["offered"]
    assert clean("commit_batching", row) == []
    # Batching is what holds the wire volume: ~6 RPCs per committed
    # write instead of the baseline's ~14.
    assert row["rpcs_sent"] < row["offered"] * 8, row["rpcs_sent"]
    # The wall-clock budget itself is enforced by check_regression.py
    # over this module's recorded wall_clock_seconds.
