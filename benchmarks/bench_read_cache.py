"""S4 -- the leased read plane: cached bindings vs authoritative reads.

The paper's central trick is that clients may act on possibly
out-of-date naming information as long as staleness is detected and
repaired at use time -- yet through PR 4 every ``GetServer``/``GetView``
still paid a full RPC into a shard's single-server queue plus 2PC read
locks, even for bindings that had not changed in thousands of simulated
seconds.  The leased read plane (``nameserver_lease``) serves hot
bindings from a per-client cache bounded by lease TTL ∧ fence epoch;
this experiment measures what that buys and proves what it cannot
break:

- the **capacity sweep** runs the same read-heavy hot-object workload
  at 1..8 shards with the cache off and on.  Uncached, hot arcs cannot
  be split by sharding (all clients hammer the same entries' home
  queues), so throughput plateaus; cached, the hot path leaves the
  network entirely.
- the **churn ledger** re-runs with a shard-host crash and a live
  reshard mid-run and audits every cache-served read against its
  bounds: served inside its lease TTL, tagged with the then-live fence
  epoch, and no committed binding lost or invented.
"""

import pytest

from repro.workload import Table
from repro.workload.scenarios import clean, run

from benchmarks.common import once

SHARD_COUNTS = [1, 2, 4, 8]
LEASE = 30.0
WORKLOAD = dict(clients=24, txns_per_client=10, hot_objects=4,
                shard_service_time=0.012, mean_think_time=0.002,
                fixed_latency=0.002)


@pytest.mark.benchmark(group="read_cache")
def test_leased_reads_beat_uncached_at_every_shard_count(benchmark):
    def experiment():
        rows = []
        for shards in SHARD_COUNTS:
            uncached = run("leased_read", shards=shards, lease=None,
                           **WORKLOAD)
            cached = run("leased_read", shards=shards, lease=LEASE,
                         **WORKLOAD)
            assert clean("leased_read", uncached) == [], shards
            assert clean("leased_read", cached) == [], shards
            rows.append({
                "shards": shards,
                "uncached_throughput": uncached["throughput"],
                "cached_throughput": cached["throughput"],
                "speedup": cached["throughput"] / uncached["throughput"],
                "uncached_p95": uncached["p95_latency"],
                "cached_p95": cached["p95_latency"],
                "uncached_commit_rate": uncached["commit_rate"],
                "cached_commit_rate": cached["commit_rate"],
                "hit_rate": cached["hit_rate"],
                "uncached_get_server_rpcs": uncached["get_server_rpcs"],
                "cached_get_server_rpcs": cached["get_server_rpcs"],
                "ledger_violations": cached["ledger_violations"],
            })
        return rows

    rows = once(benchmark, experiment)

    table = Table("S4: leased read plane, 24 clients x 10 read txns on "
                  "4 hot objects",
                  ["shards", "uncached txn/s", "cached txn/s", "speedup",
                   "uncached p95", "cached p95", "hit rate"])
    for row in rows:
        table.add_row(row["shards"], row["uncached_throughput"],
                      row["cached_throughput"], row["speedup"],
                      row["uncached_p95"], row["cached_p95"],
                      row["hit_rate"])
    table.show()

    for row in rows:
        assert row["uncached_commit_rate"] == 1.0, row
        assert row["cached_commit_rate"] == 1.0, row
        # The acceptance bar: >= 2x committed read throughput and a
        # p95 latency cut at every shard count.
        assert row["speedup"] >= 2.0, \
            f"{row['shards']} shards: only {row['speedup']:.2f}x"
        assert row["cached_p95"] < row["uncached_p95"], \
            f"{row['shards']} shards: p95 must drop, {row}"
        # The mechanism must be the one claimed: cache hits replace
        # authoritative GetServer RPCs, not some workload accident.
        assert row["hit_rate"] >= 0.8, row
        assert (row["cached_get_server_rpcs"]
                < row["uncached_get_server_rpcs"]), row
        # And no cache-served read may ever escape lease+epoch bounds.
        assert row["ledger_violations"] == 0, row


@pytest.mark.benchmark(group="read_cache")
def test_churn_ledger_no_cached_read_escapes_its_bounds(benchmark):
    """Reshard + shard-host crash mid-run: the staleness bound holds."""

    def experiment():
        return run("leased_read_churn")

    row = once(benchmark, experiment)

    table = Table("S4: leased plane under churn (crash + live reshard)",
                  ["committed/offered", "hits", "hit rate",
                   "fenced", "expired", "violations", "lost", "invented"])
    table.add_row(f"{row['committed']}/{row['offered']}", row["cache_hits"],
                  row["hit_rate"], row["fenced_invalidations"],
                  row["expired_invalidations"], row["ledger_violations"],
                  row["lost_bindings"], row["invented_bindings"])
    table.show()

    # The reshard completed mid-churn, no cache-served read escaped its
    # lease+epoch bounds, no committed increment lost or invented.
    assert clean("leased_read_churn", row) == []
    assert row["cache_hits"] > 0, "the churn must exercise the cache"
    assert row["fenced_invalidations"] > 0, \
        "the reshard must fence out pre-flip entries"
    assert row["expired_invalidations"] > 0, \
        "leases must actually expire during the haul"
