"""S1 -- sharding the Object Server database over a hash ring.

The paper implements the group-view database as a single Arjuna object
on one node; with per-node service time modelled, that node is the
hottest single-server queue in the system (~7 database calls per
figure-7 transaction against ~1 per server host) and caps committed
throughput.  Partitioning the entries across N store hosts with a
consistent-hash ring removes the cap while each entry keeps the
paper's per-entry lock semantics on its owning shard.

The sweep runs the identical closed-loop workload (24 clients, one
object each -- no entry contention, so the experiment isolates
capacity) against 1..8 shard hosts under the independent top-level
scheme, and reports committed-transaction throughput, commit rate, and
how the ring spread both the entries and the read traffic.
"""

import pytest

from repro.workload import Table, sweep
from repro.workload.scenarios import clean, run

from benchmarks.common import once

SHARD_COUNTS = [1, 2, 4, 8]


@pytest.mark.benchmark(group="sharded_nameserver")
def test_sharding_scales_binding_throughput(benchmark):
    def experiment():
        return sweep(SHARD_COUNTS,
                     lambda n: run("sharded_nameserver", shards=n),
                     label="shards")

    rows = once(benchmark, experiment)

    table = Table("S1: name-service shard count vs committed throughput "
                  "(24 clients x 6 txns, independent scheme)",
                  ["shards", "committed/offered", "commit rate",
                   "throughput (txn/s)", "p95 (s)", "p99 (s)",
                   "entries per shard"])
    for row in rows:
        spread = ",".join(str(c) for c in row["entry_spread"].values())
        table.add_row(row["shards"], f"{row['committed']}/{row['offered']}",
                      row["commit_rate"], row["throughput"],
                      row["p95_latency"], row["p99_latency"], spread)
    table.show()

    by_shards = {row["shards"]: row for row in rows}
    # Every configuration must absorb the workload (sharding must not
    # cost correctness)...
    for row in rows:
        assert clean("sharded_nameserver", row) == [], row["shards"]
    # ...and committed throughput must rise monotonically from the
    # paper's single node through 4 shards, and keep (at least) that
    # level at 8 -- the acceptance shape for horizontal scaling.
    throughputs = [by_shards[n]["throughput"] for n in SHARD_COUNTS]
    assert throughputs[0] < throughputs[1] < throughputs[2], \
        f"throughput must grow 1 -> 2 -> 4 shards: {throughputs}"
    assert throughputs[3] >= throughputs[2], \
        f"8 shards must not regress below 4: {throughputs}"


@pytest.mark.benchmark(group="sharded_nameserver")
def test_ring_spreads_traffic_not_just_entries(benchmark):
    """The win must come from the ring actually spreading db *calls*."""

    def experiment():
        return run("sharded_nameserver", shards=4)

    row = once(benchmark, experiment)

    table = Table("S1: per-shard GetServer traffic at 4 shards",
                  ["shard", "entries", "GetServer calls"])
    for name, reads in row["per_shard_reads"].items():
        table.add_row(name, row["entry_spread"][name], reads)
    table.show()

    busy = [reads for reads in row["per_shard_reads"].values() if reads > 0]
    assert len(busy) >= 3, "traffic must reach most of a 4-shard ring"


@pytest.mark.benchmark(group="sharded_nameserver")
@pytest.mark.parametrize("scheme", ["standard", "independent",
                                    "nested_top_level"])
def test_all_schemes_work_sharded(benchmark, scheme):
    """All three binding schemes run unchanged against the ring."""

    def experiment():
        return run("sharded_nameserver", shards=3, clients=6,
                   txns_per_client=3, server_hosts=3, scheme=scheme)

    row = once(benchmark, experiment)
    assert clean("sharded_nameserver", row) == [], scheme
