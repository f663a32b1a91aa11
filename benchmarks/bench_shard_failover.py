"""S2 -- shard-host failover on the replicated ring.

PR 1's ring fixed the name service's capacity ceiling but made its
availability *worse* than the paper's single node: each entry lived on
exactly one shard host, so one crash black-holed that host's whole arc
of the namespace until recovery.  This experiment shows the fix --
``nameserver_replication`` -- doing its job: with every entry
replicated over its ring arc's preference list, a crashed shard host
costs nothing (writes flow through the surviving replicas, reads fail
over down the preference list), and the recovered host rejoins the
serving path only after the shard-resync daemon has copied its arcs
back from its peers.

The workload is the capacity sweep's closed loop (one object per
client, no entry contention) run across a scripted mid-run outage of
one shard host.  The acceptance shape:

- ``replication=1`` (the PR 1 status quo) visibly degrades: bindings
  against the victim's arcs can only abort during the outage;
- ``replication=2`` keeps committed binding throughput above zero for
  the victim's own arcs *throughout* the outage and ends with a 1.0
  commit rate;
- the victim serves again only after its resync completes
  (``resync_done_at`` strictly after the scripted recovery time).
"""

import pytest

from repro.workload import Table, sweep
from repro.workload.scenarios import clean, run

from benchmarks.common import once

REPLICATIONS = [1, 2]


@pytest.mark.benchmark(group="shard_failover")
def test_replicated_ring_survives_a_shard_host_outage(benchmark):
    def experiment():
        return sweep(REPLICATIONS,
                     lambda n: run("sharded_failover", replication=n),
                     label="replication")

    rows = once(benchmark, experiment)

    table = Table("S2: shard-host outage vs binding availability "
                  "(3 shards, 12 clients, one host down for 7s)",
                  ["replication", "commit rate",
                   "victim-arc commits during outage", "p95 (s)",
                   "p99 (s)", "resync done at"])
    for row in rows:
        during = (f"{row['victim_commits_during_outage']}"
                  f"/{row['victim_offered_during_outage']}")
        table.add_row(row["replication"], row["commit_rate"], during,
                      row["p95_latency"], row["p99_latency"],
                      row["resync_done_at"] or "-")
    table.show()

    by_repl = {row["replication"]: row for row in rows}
    bare, replicated = by_repl[1], by_repl[2]

    # Both runs must exercise the interesting case at all.
    for row in rows:
        assert row["victim_arcs"] > 0, row
        assert row["serving_again"], row

    # The PR 1 status quo: the victim's arcs black-hole, so the loop
    # cannot absorb the workload.
    assert bare["commit_rate"] < 1.0, bare

    # The acceptance shape: with replication, bindings against the
    # crashed host's own arcs keep committing during the outage...
    assert replicated["victim_commits_during_outage"] > 0, replicated
    assert replicated["victim_commits_during_outage"] > \
        bare["victim_commits_during_outage"], (bare, replicated)
    # ...the whole workload commits, and the recovered host serves
    # again only after its one resync from the replica peers completed.
    assert clean("sharded_failover", replicated) == []


@pytest.mark.benchmark(group="shard_failover")
def test_resync_copies_the_missed_writes(benchmark):
    """The recovered host must actually have missed (and re-copied)
    entries: an outage with live write traffic leaves it stale, and
    rejoining without a copy would serve old views."""

    def experiment():
        return run("sharded_failover")

    row = once(benchmark, experiment)
    assert row["entries_refreshed"] > 0, row


@pytest.mark.benchmark(group="shard_failover")
def test_spread_reads_cut_hot_arc_tail_latency(benchmark):
    """Replicating an arc buys more than crash survival: with
    ``nameserver_read_policy=spread`` the replicas also carry the
    arc's *read load*.  A hot entry read under the default ``primary``
    policy funnels every GetServer through the preference-list head's
    single-server queue; ``spread`` rotates across all live replicas,
    and the hot arc's tail latency is the difference."""

    def experiment():
        return sweep(["primary", "spread"],
                     lambda p: run("spread_read", read_policy=p),
                     label="policy")

    rows = once(benchmark, experiment)

    table = Table("S2b: hot-arc read policy vs latency "
                  "(18 readers, 1 hot object, replication=3)",
                  ["policy", "commit rate", "mean (s)", "p95 (s)",
                   "reads per shard"])
    for row in rows:
        reads = ",".join(str(c) for c in row["per_shard_reads"].values())
        table.add_row(row["policy"], row["commit_rate"], row["mean_latency"],
                      row["p95_latency"], reads)
    table.show()

    by_policy = {row["policy"]: row for row in rows}
    primary, spread = by_policy["primary"], by_policy["spread"]
    for row in rows:
        assert clean("spread_read", row) == [], row["policy"]

    # Primary hammers exactly one queue; spread must reach every
    # replica of the hot arc...
    assert sum(1 for c in primary["per_shard_reads"].values() if c > 0) == 1, \
        primary
    assert sum(1 for c in spread["per_shard_reads"].values() if c > 0) >= 3, \
        spread
    # ...and that is where the tail-latency win comes from.
    assert spread["p95_latency"] < 0.85 * primary["p95_latency"], \
        (primary["p95_latency"], spread["p95_latency"])
    assert spread["mean_latency"] < primary["mean_latency"], rows
