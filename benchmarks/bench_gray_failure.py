"""S8 -- gray failures: degraded hosts, partial partitions, repair.

Crash failures are the easy case: a dead host fails fast, and PR 2's
replicated ring plus shard resync absorb it.  This experiment covers
the failures that *don't* fail fast:

**Gray hosts** (``test_gray_shard_hosts_are_detected_and_routed_
around``): two of three shard hosts turn gray mid-run -- alive,
accepting every request, but with message delays multiplied 40x and a
10% chance of losing each one.  Correlated grayness (a bad rack)
exercises both detectors the plane ships: arcs with one gray replica
are healed per-client by the ``PeerHealthTracker`` (gross samples and
timeout streaks demote the peer to the back of the read order), while
arcs whose whole replica set is gray must still serve through it, so
only the autoscaler's p95 latency trigger can help -- by growing the
ring onto healthy hardware.  Latency is the one signal a gray host
cannot hide: its op counters look normal.

**Partial partitions** (``test_partition_divergence_is_repaired_by_
content_versions``): two writers each lose one *direction* to a
different replica of the same entry, so each commits a conflicting
group-view write on its reachable replica only.  The version counts
bump identically on both -- a count alone would show two up-to-date
copies and never reconcile them.  Each version also carries a digest of
its content, so the copies' versions differ, and the anti-entropy sweep
converges the replicas on the greater one, with no phase of its own.

The acceptance shape:

- demotions > 0 and at least one p95-triggered scale-up;
- the correctness ledger all zeros in both rows: gray is slow but
  never wrong, and the repaired entry contains nothing neither writer
  installed (zero invented bindings).
"""

import pytest

from repro.workload import Table
from repro.workload.scenarios import clean, run

from benchmarks.common import once


@pytest.mark.benchmark(group="gray_failure")
def test_gray_shard_hosts_are_detected_and_routed_around(benchmark):
    def experiment():
        return run("gray_failure", mode="gray")

    row = once(benchmark, experiment)

    table = Table("S8a: correlated gray shard hosts under load "
                  "(40 streams, 2 of 3 hosts gray for 3s, 40x latency)",
                  ["victims", "fully-gray arcs", "commit rate",
                   "demotions", "p95 scale-ups", "shards", "p99 (s)",
                   "lost", "stale"])
    table.add_row(",".join(row["victims"]), row["fully_gray_arcs"],
                  row["commit_rate"], row["demotions"],
                  row["p95_scale_ups"],
                  f"{row['shards_before']}->{row['shards_after']}",
                  row["p99_latency"], row["lost_bindings"],
                  row["stale_bindings"])
    table.show()

    # The scenario must exercise both detector paths at all.
    assert row["fully_gray_arcs"] > 0, row
    assert row["degraded_drops"] > 0, row

    # Both detection signals fired (demotions; a p95-triggered
    # scale-up) and gray was slow, never wrong.
    assert clean("gray_failure", row) == []
    assert row["shards_after"] > row["shards_before"], row


@pytest.mark.benchmark(group="gray_failure")
def test_partition_divergence_is_repaired_by_content_versions(benchmark):
    def experiment():
        return run("gray_failure", mode="partition")

    row = once(benchmark, experiment)

    table = Table("S8b: partial partition -> equal-count divergence "
                  "-> repair (2 replicas, 2 writers)",
                  ["diverged views", "repairs", "final view",
                   "disagreements", "invented", "lost", "stale"])
    table.add_row(" vs ".join(",".join(v) for v in row["diverged_views"]),
                  row["divergence_repairs"], ",".join(row["final_view"]),
                  row["replica_disagreements"], row["invented_bindings"],
                  row["lost_bindings"], row["stale_bindings"])
    table.show()

    # Both writers committed through the partition, the split was real
    # (equal counts, different views), the sweep repaired it, nothing
    # was invented and the object-state ledger balances.
    assert clean("gray_failure", row) == []
    assert len(row["diverged_views"]) == 2, row
    # The converged view is one of the written ones.
    assert list(row["final_view"]) in [sorted(v) for v in
                                       row["diverged_views"]], row

