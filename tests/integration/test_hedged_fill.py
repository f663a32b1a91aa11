"""Hedged cache fills across a shard-host outage.

A cache miss on a leased deployment fills through the lock-free
``read_versioned`` walk.  Walked one replica at a time, a fill whose
primary just went dark waits out the whole ``rpc_timeout`` before it
asks the replica -- the tail of every churn run.  With peer health on,
the walk hedges: a request unanswered for ``latency_factor`` times its
replica's EWMA also goes to the next replica.  Here eight clients bind
through a crash of one shard host, and once their trackers are warm no
bind may take as long as the timeout, while every cache-served read
stays inside its lease and fence bounds.
"""

from tests.conftest import get_work
from tests.integration.test_sharded_nameserver import build

RPC_TIMEOUT = 0.25
CLIENTS = 8


def bind_rounds(system, runtimes, uids, rounds):
    """Each client binds every uid ``rounds`` times, all clients at
    once; returns the ``get_binding`` latencies, in completion order."""
    latencies = system.metrics.histogram("naming.get_server_latency")
    first = latencies.count
    results = []

    def binder(offset, runtime):
        order = uids[offset:] + uids[:offset]
        for _ in range(rounds):
            for uid in order:
                results.append((yield runtime.transaction(
                    get_work(uid), read_only=True)))

    binders = [system.scheduler.spawn(binder(3 * offset, runtime))
               for offset, runtime in enumerate(runtimes)]
    for process in binders:
        system.run_until(process)
    assert len(results) == rounds * len(uids) * len(runtimes)
    assert all(result.committed for result in results)
    return latencies.values[first:]


def test_no_bind_waits_out_a_dark_name_nodes_timeout():
    # The lease is shorter than a round over the uids, so every bind
    # is a cache miss that fills through the replicas.
    system, runtimes, uids = build(
        shards=3, objects=24, clients=CLIENTS, nameserver_replication=2,
        nameserver_lease=0.05, nameserver_cache_ledger=True,
        nameserver_peer_health=True, rpc_timeout=RPC_TIMEOUT,
        fixed_latency=0.002, enable_recovery_managers=False)
    victim = system.shard_hosts[0]
    assert any(system.shard_router.preference_list(uid, 2)[0] == victim
               for uid in uids), "the victim must be some entry's primary"

    bind_rounds(system, runtimes, uids, rounds=3)
    trackers = [runtime._ctx.db.io.health for runtime in runtimes]
    assert all(tracker.hedge_after(victim) is not None
               for tracker in trackers), "every tracker must be warm"

    system.nodes[victim].crash()
    outage = bind_rounds(system, runtimes, uids, rounds=2)
    assert max(outage) < RPC_TIMEOUT
    hedged = system.metrics.counter_value("replica_io.hedged_reads")
    assert hedged >= CLIENTS, "each client must have raced the dark primary"
    # The losers' timeouts still reached the trackers: the victim ends
    # the outage demoted everywhere.
    assert all(tracker.is_gray(victim) for tracker in trackers)

    violations = [violation for cache in system.entry_caches.values()
                  for violation in cache.ledger_violations()]
    assert violations == []
