"""Type-specific use-list locks under a contended figure-7 load.

Twelve clients run 50/50 add/get transactions over 32 shared counters
on a 4-shard, 2-replica ring with the independent binding scheme.
Every bind Increments under an INCREMENT lock, which binders never
share; every unbind Decrements under a DECREMENT lock, which shares
the entry with another client's binding action and with other
Decrements.  Whatever the interleaving, once every transaction has
ended each use-list counter must be back at 0 on every owner replica,
the owners must agree on every use list, and no committed add may be
lost or invented.
"""

import pytest

from repro import DistributedSystem, SystemConfig
from repro.sim.rng import SeededRng
from repro.workload.audit import CounterLedgerAudit, UseListAudit
from repro.workload.generator import TransactionStream, run_streams

from tests.conftest import Counter, add_work, get_work

CLIENTS, COUNTERS, TXNS = 12, 32, 24


def contended_bind_load(seed):
    system = DistributedSystem(SystemConfig(
        seed=seed, enable_recovery_managers=False, nameserver_shards=4,
        nameserver_replication=2, binding_scheme="independent",
        rpc_timeout=5.0, fixed_latency=0.002))
    system.registry.register(Counter)
    hosts = [f"s{i}" for i in range(8)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(CLIENTS)]
    uids = [system.create_object(Counter(system.new_uid(), value=0),
                                 sv_hosts=[hosts[i % 8]],
                                 st_hosts=[hosts[i % 8]])
            for i in range(COUNTERS)]
    for node in system.nodes.values():
        node.rpc.service_time = 0.006

    adds = dict.fromkeys(uids, 0)

    def stream(i, runtime):
        rng = SeededRng(seed, f"mix{i}")
        picks = [(rng.choice(uids), rng.chance(0.5)) for _ in range(TXNS)]
        return TransactionStream(
            runtime, lambda index: (add_work(picks[index][0])
                                    if picks[index][1]
                                    else get_work(picks[index][0])),
            count=TXNS, rng=rng, mean_think_time=0.05, max_attempts=40), picks

    streams = [stream(i, runtime) for i, runtime in enumerate(runtimes)]
    report = run_streams(system, [s for s, _ in streams])
    for s, picks in streams:
        for outcome, (uid, is_add) in zip(s.report.outcomes, picks):
            adds[uid] += outcome.committed and is_add
    return system, uids, adds, report


@pytest.mark.parametrize("seed", [7, 11])
def test_every_use_count_returns_to_zero_on_every_replica(seed):
    system, uids, adds, report = contended_bind_load(seed)
    assert report.committed == report.offered == CLIENTS * TXNS
    count = system.metrics.snapshot()
    refused = {key: value for key, value in count.items()
               if ".locks_refused." in key and value}
    # The load is contended: binders refused each other...
    assert any(key.endswith("increment") for key in refused), refused
    assert system.metrics.counter_value(
        "binding.independent.unbind_gave_up") == 0

    assert UseListAudit().check(system, uids) == {
        "leftover_uses": 0, "use_list_disagreements": 0}
    assert CounterLedgerAudit().check(system, adds) == {
        "lost_bindings": 0, "stale_bindings": 0}
