"""The canned scenarios behind every benchmark, declared.

Each entry of :data:`SCENARIOS` is a :class:`~repro.workload.scenario.
Scenario`; :func:`run` executes one by name.  First the ten scale-out
experiments (S1-S8), then the ``paper_*`` family: the paper's own
figures 1-8 and section 2.3-5 trade-offs.  The benchmarks, the CI
smokes (``python -m repro.workload run <name> --tiny --assert-clean``)
and the registry test all read this one table.

Adding a scenario is one ``_register(Scenario(...))``: name its
parameters, say which ``SystemConfig`` settings and :class:`Shape` they
produce, pick the streams (usually :func:`closed_loop`), script the
faults with ``run.install(FaultPlan()...)``, list the auditors whose
ledgers must stay zero, and report the counters the experiment is
about.  Seeded stream labels, host and client names, creation order and
settle horizons all feed the simulation, so a recorded row changes if
any of them does.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.replication import (
    ActiveReplication,
    CoordinatorCohortReplication,
    SingleCopyPassive,
)
from repro.sim.failures import FaultPlan
from repro.sim.process import Timeout
from repro.sim.rng import SeededRng
from repro.workload.audit import (
    CacheLedgerAudit,
    CounterLedgerAudit,
    PlacementAudit,
    UseListAudit,
    lock_leftovers,
)
from repro.workload.generator import TransactionStream, invoke
from repro.workload.scenario import (
    Counter,
    Run,
    Scenario,
    Shape,
    busy_skew,
    cache_summary,
    clients,
    closed_loop,
    counter_sum,
    execute,
    expecting,
    last_finish,
    latency_summary,
    load_summary,
    rate,
    shard_reads,
)

SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    SCENARIOS[scenario.name] = scenario
    return scenario


def run(name: str, **overrides: Any) -> dict[str, Any]:
    """Run the named scenario once; ``overrides`` replace its defaults."""
    return execute(SCENARIOS[name], **overrides)


def tiny_rows(name: str) -> list[dict[str, Any]]:
    """One row per smoke case of the named scenario."""
    return [run(name, **case) for case in SCENARIOS[name].tiny]


def clean(name: str, row: dict[str, Any]) -> list[str]:
    """What is wrong with ``row``, by the scenario's own standard, and
    whether a lock outlived its action (every scenario's)."""
    scenario = SCENARIOS[name]
    return (scenario.modes.get(row.get("mode"), scenario).clean(row)
            + expecting(leaked_locks=0)(row))


def _shard_outage(run: Run) -> None:
    """Crash one shard host for ``p.outage``; let recovery and resync
    play out for 30 s before anything is inspected."""
    run.victim = run.system.shard_hosts[getattr(run.p, "victim_index", 0)]
    run.install(FaultPlan().outage(*run.p.outage, run.victim), settle=30.0)


def _resync_fields(run: Run) -> dict[str, Any]:
    resyncer = run.system.shard_resyncers.get(run.victim)
    return {
        "resync_done_at": resyncer.last_resync_at if resyncer else None,
        "entries_refreshed": resyncer.entries_refreshed if resyncer else 0,
    }


# Every Increment met its Decrement, or the janitors lowered what a
# failed one left (:class:`UseListAudit`).
_NO_USES_LEFT = dict(leftover_uses=0, use_list_disagreements=0)


# -- S1: capacity ------------------------------------------------------

def _sharded_nameserver_row(run: Run) -> dict[str, Any]:
    system, report = run.system, run.report
    row = {"shards": run.p.shards, **load_summary(report),
           "elapsed": run.ended,
           "throughput": rate(report.committed, run.ended),
           **latency_summary(report.outcomes), "busy_skew": busy_skew(run)}
    row["entry_spread"] = system.shard_router.spread(run.uids)
    row["per_shard_reads"] = shard_reads(run, system.shard_router.nodes)
    return row


_register(Scenario(
    name="sharded_nameserver",
    doc="""Binding throughput vs name-service shard count (S1).

    A closed loop of clients, each binding against its own object, so
    the run isolates *capacity*, not locking.  The generous rpc timeout
    matters: an overloaded name node must show up as queueing delay,
    not as spurious timeout aborts.
    """,
    params=dict(shards=4, clients=24, txns_per_client=6, server_hosts=8,
                scheme="independent", service_time=0.006,
                mean_think_time=0.01, max_attempts=10, rpc_timeout=5.0,
                seed=7),
    tiny=tuple(dict(shards=n, clients=4, txns_per_client=2, server_hosts=2)
               for n in (1, 2)),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.clients),
    streams=lambda run: closed_loop(run, run.p.txns_per_client),
    auditors=lambda p: (UseListAudit(),),
    counters=_sharded_nameserver_row,
    clean=expecting(commit_rate=1.0, **_NO_USES_LEFT),
))


# -- S2: availability --------------------------------------------------

def _sharded_failover_row(run: Run) -> dict[str, Any]:
    system, p, report = run.system, run.p, run.report
    start, end = p.outage
    victim_outcomes = [
        o for stream, uid in zip(run.streams, run.uids)
        if system.shard_router.shard_for(uid) == run.victim
        for o in stream.report.outcomes]
    during = [o for o in victim_outcomes if start <= o.finished_at <= end]
    resyncer = system.shard_resyncers.get(run.victim)
    return {
        "shards": p.shards, "replication": p.replication,
        "victim": run.victim,
        "victim_arcs": sum(system.shard_router.shard_for(uid) == run.victim
                           for uid in run.uids),
        **load_summary(report), **latency_summary(report.outcomes),
        "victim_offered_during_outage": len(during),
        "victim_commits_during_outage": sum(o.committed for o in during),
        "victim_commits_total": sum(o.committed for o in victim_outcomes),
        "resyncs_completed": resyncer.resyncs_completed if resyncer else 0,
        **_resync_fields(run),
        "recovered_at": end,
        "serving_again": (resyncer.serving if resyncer
                          else not system.nodes[run.victim].crashed),
    }


_register(Scenario(
    name="sharded_failover",
    doc="""Binding availability across a shard-host outage (S2).

    The capacity loop across a scripted outage of one shard host.  The
    tight ``rpc_timeout`` makes a call to the crashed host fail fast,
    so the client's failover (not timeout tuning) is what is measured.
    """,
    params=dict(shards=3, replication=2, clients=12, txns_per_client=10,
                server_hosts=4, scheme="independent", mean_think_time=0.05,
                max_attempts=10, rpc_timeout=0.3, outage=(2.0, 9.0),
                victim_index=0, seed=7),
    # The bare-ring case drops Decrements on the dark host mid-load.
    tiny=(dict(clients=4, txns_per_client=3, server_hosts=2,
               outage=(1.0, 4.0)),
          dict(replication=1, clients=4, txns_per_client=10, server_hosts=2,
               outage=(0.2, 1.5))),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.clients),
    streams=lambda run: closed_loop(run, run.p.txns_per_client),
    script=_shard_outage,
    auditors=lambda p: (UseListAudit(),),
    counters=_sharded_failover_row,
    clean=expecting(
        serving_again=True, **_NO_USES_LEFT,
        # A bare ring black-holes the victim's arcs and has no peer to
        # resync from: only a replicated one absorbs the outage.
        commit_rate=lambda r: r["replication"] == 1 or r["commit_rate"] == 1,
        resyncs_completed=lambda r: (r["replication"] == 1
                                     or r["resyncs_completed"] == 1),
        resync_after_recovery=lambda r: r["replication"] == 1 or (
            r["resync_done_at"] > r["recovered_at"])),
))


def _spread_read_row(run: Run) -> dict[str, Any]:
    report = run.report
    return {"read_policy": run.p.read_policy, **load_summary(report),
            "mean_latency": report.mean_latency(),
            **latency_summary(report.outcomes),
            "throughput": rate(report.committed, run.ended),
            "per_shard_reads": shard_reads(run, run.system.shard_hosts)}


_register(Scenario(
    name="spread_read",
    doc="""Hot-arc read latency, ``primary`` vs ``spread`` policy (S2b).

    Read-only loops over a few hot objects; only the shard hosts charge
    service time, so the name service is the sole queueing bottleneck.
    """,
    params=dict(read_policy="primary", shards=3, replication=3, clients=18,
                txns_per_client=12, server_hosts=3, hot_objects=1,
                shard_service_time=0.005, mean_think_time=0.01,
                max_attempts=5, rpc_timeout=5.0, seed=7),
    tiny=(dict(read_policy="spread", clients=6, txns_per_client=4),),
    config=lambda p: dict(nameserver_read_policy=p.read_policy,
                          binding_scheme="standard"),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.hot_objects,
                          shard_service_time=p.shard_service_time),
    streams=lambda run: closed_loop(run, run.p.txns_per_client,
                                    read_only=True),
    counters=_spread_read_row,
    clean=expecting(
        commit_rate=1.0,
        reads_reach_shards=lambda r: sum(r["per_shard_reads"].values()) > 0),
))


# -- S3: elasticity ----------------------------------------------------

def _reshard_steps(run: Run):
    """The ring change ``online_reshard`` drives: one host at a time,
    or the whole delta as a single ``plan_rebalance`` epoch."""
    system, p = run.system, run.p
    nodes = system.shard_router.nodes
    if p.plan:
        delta = p.target_shards - len(nodes)
        if delta > 0:
            yield system.plan_rebalance(add=delta)
        elif delta < 0:
            yield system.plan_rebalance(remove=nodes[delta:])
        return
    while len(system.shard_router.nodes) < p.target_shards:
        yield system.add_shard_host()
    while len(system.shard_router.nodes) > p.target_shards:
        yield system.drain_shard_host(system.shard_router.nodes[-1])


def _online_reshard_script(run: Run) -> None:
    run.reshard_after(run.p.reshard_at, lambda: _reshard_steps(run),
                      "reshard-driver")
    run.settle = 2.0  # let repairs settle once the last epoch is done


def _online_reshard_row(run: Run) -> dict[str, Any]:
    system, report, flips = run.system, run.report, run.migrations
    start = flips[0]["started_at"] if flips else None
    done = flips[-1]["done_at"] if flips else None

    def window_rate(lo, hi):
        if lo is None or hi is None or hi <= lo:
            return 0.0
        return sum(o.committed and lo <= o.finished_at < hi
                   for o in report.outcomes) / (hi - lo)

    return {
        "shards_before": run.p.initial_shards,
        "shards_after": len(system.shard_router.nodes),
        **load_summary(report), **latency_summary(report.outcomes),
        "throughput_before": window_rate(0.0, start),
        "throughput_during": window_rate(start, done),
        "throughput_after": window_rate(done, last_finish(report, 0.0)),
        "migration_started_at": start,
        "migration_done_at": done,
        "epochs": len(flips),
        "entries_copied": sum(f["entries_copied"] for f in flips),
        "entries_forgotten": sum(f["entries_forgotten"] for f in flips),
        "requests_fenced": sum(node.rpc.calls_fenced
                               for node in system.nodes.values()),
        "stale_ring_retries": system.metrics.counter_value(
            "replica_io.stale_ring_retries"),
        # Transactions the ring sent somewhere that could not serve them.
        "aborted_for_routing": sum(
            count for bucket, count in report.abort_reasons().items()
            if "UnknownObject" in bucket or bucket.startswith("Rpc")),
    }


_register(Scenario(
    name="online_reshard",
    doc="""Growing or draining the shard ring live, under load (S3).

    The capacity loop runs while a driver grows (or, with
    ``target_shards < initial_shards``, drains) the ring one host at a
    time -- or with ``plan=True`` the whole delta as a single
    ``plan_rebalance`` epoch.  The row splits committed throughput into
    before/during/after-migration windows.
    """,
    params=dict(initial_shards=2, target_shards=4, replication=2, clients=24,
                txns_per_client=36, server_hosts=4, scheme="independent",
                service_time=0.006, mean_think_time=0.01, max_attempts=10,
                rpc_timeout=5.0, reshard_at=2.0, plan=False, seed=7),
    tiny=(dict(target_shards=3, clients=6, txns_per_client=12,
               server_hosts=2, reshard_at=1.0),
          dict(clients=8, txns_per_client=14, server_hosts=2,
               reshard_at=1.0, plan=True)),
    config=lambda p: dict(nameserver_shards=p.initial_shards),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.clients),
    streams=lambda run: closed_loop(run, run.p.txns_per_client),
    script=_online_reshard_script,
    auditors=lambda p: (CounterLedgerAudit(), PlacementAudit(),
                        UseListAudit()),
    counters=_online_reshard_row,
    clean=expecting(
        commit_rate=1.0, lost_bindings=0, stale_bindings=0, **_NO_USES_LEFT,
        aborted_for_routing=0, misplaced_entries=0, replica_disagreements=0,
        migration_ran=lambda r: (r["migration_done_at"]
                                 > r["migration_started_at"])),
))


# -- S4: the leased read plane -----------------------------------------

def _leased_read_row(run: Run) -> dict[str, Any]:
    system, report = run.system, run.report
    return {
        "shards": run.p.shards, "lease": run.p.lease, **load_summary(report),
        "throughput": rate(report.committed, run.ended),
        "mean_latency": report.mean_latency(),
        **latency_summary(report.outcomes), **cache_summary(system),
        "get_server_rpcs": sum(
            shard_reads(run, system.shard_hosts).values()),
        "busy_skew": busy_skew(run),
    }


_register(Scenario(
    name="leased_read",
    doc="""Read-heavy hot objects with the leased cache off or on (S4).

    The spread-read shape with the leased read plane toggled by
    ``lease`` (``None``: every transaction pays a ``GetServer`` RPC).
    """,
    params=dict(shards=4, lease=None, replication=None, clients=18,
                txns_per_client=12, server_hosts=3, hot_objects=6,
                shard_service_time=0.005, mean_think_time=0.01,
                max_attempts=5, rpc_timeout=5.0, fixed_latency=0.01, seed=7),
    tiny=tuple(dict(shards=2, lease=lease, clients=6, txns_per_client=4)
               for lease in (None, 5.0)),
    config=lambda p: dict(
        nameserver_replication=(p.replication if p.replication is not None
                                else min(2, p.shards)),
        binding_scheme="standard",
        nameserver_cache_ledger=p.lease is not None),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.hot_objects,
                          shard_service_time=p.shard_service_time),
    streams=lambda run: closed_loop(run, run.p.txns_per_client,
                                    read_only=True),
    auditors=lambda p: (CacheLedgerAudit(),),
    counters=_leased_read_row,
    clean=expecting(commit_rate=1.0, ledger_violations=0),
))


def _add_one_reshard(run: Run, delay: float, name: str) -> None:
    run.reshard_after(delay, lambda: [run.system.add_shard_host()], name)


def _leased_churn_script(run: Run) -> None:
    _shard_outage(run)
    _add_one_reshard(run, run.p.reshard_at, "leased-churn-reshard")


def _round_robin_writes(run: Run) -> None:
    """One ``add`` at a time, round-robin over the counters, until the
    deadline: entry versions move while the outage and reshard land."""
    system = run.system
    run.adds = {uid: 0 for uid in run.uids}
    run.offered = 0
    while system.scheduler.now < run.p.rounds_deadline:
        for i, uid in enumerate(run.uids):
            result = system.run_transaction(
                run.runtimes[i % len(run.runtimes)], invoke(uid, "add", 1))
            run.offered += 1
            run.adds[uid] += result.committed


def _churn_fields(run: Run) -> dict[str, Any]:
    caches = run.system.entry_caches.values()
    return {"reshards": len(run.migrations),
            "flipped": bool(run.migrations
                            and run.migrations[0]["flipped_at"]),
            "fenced_invalidations": sum(cache.fenced for cache in caches)}


_register(Scenario(
    name="leased_read_churn",
    doc="""The leased plane's staleness bound under churn (S4).

    Writes (so entry versions actually move) run with caching on while
    a shard-host outage and a live reshard both land mid-run; every
    client cache's ledger is audited afterwards.
    """,
    params=dict(shards=3, lease=2.0, replication=2, clients=8,
                rounds_deadline=14.0, server_hosts=3, hot_objects=6,
                outage=(3.0, 6.0), reshard_at=5.0, rpc_timeout=0.3, seed=7),
    tiny=(dict(clients=4, hot_objects=3, rounds_deadline=8.0),),
    config=lambda p: dict(binding_scheme="standard",
                          nameserver_cache_ledger=True),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.hot_objects,
                          type_name="leased_churn.Counter"),
    script=_leased_churn_script,
    load=_round_robin_writes,
    ledger=lambda run: run.adds,
    auditors=lambda p: (CounterLedgerAudit(invented="invented_bindings",
                                           read_only=False),
                        CacheLedgerAudit()),
    counters=lambda run: {
        "shards": run.p.shards, "lease": run.p.lease,
        "offered": run.offered, "committed": sum(run.adds.values()),
        "crashed_host": run.victim, **_churn_fields(run),
        **cache_summary(run.system),
        "expired_invalidations": sum(
            cache.expired for cache in run.system.entry_caches.values())},
    clean=expecting(flipped=True, ledger_violations=0, lost_bindings=0,
                    invented_bindings=0),
))


# -- S4 (network): plane interference ----------------------------------

def _metered_shard_outage(run: Run) -> None:
    """:func:`_shard_outage`, with the byte meter armed before the
    first message: this row reports each plane's bytes."""
    run.system.metrics.arm_byte_meter()
    _shard_outage(run)


def _sync_plane_row(run: Run) -> dict[str, Any]:
    system, p, report = run.system, run.p, run.report
    end = p.outage[1]
    resync = _resync_fields(run)
    storm_end = max(resync["resync_done_at"] or end + 4.0, end + 1.0)
    # Requests *started* after the outage ended: one that finished in
    # the window but started before waited out the dead host's RPC
    # timeout, which measures the outage, not the resync.
    storm = [o for o in report.outcomes
             if end <= o.finished_at - o.latency and o.finished_at < storm_end]

    def plane_total(plane: str, what: str) -> int:
        return sum(run.settled_metrics.get(
            f"traffic.{host}.{plane}.{what}", 0) for host in system.shard_hosts)

    return {
        "dedicated_sync_nic": p.dedicated_sync_nic, "shards": p.shards,
        "replication": p.replication, **load_summary(report),
        "throughput": rate(report.committed,
                           last_finish(report, system.scheduler.now)),
        "mean_latency": report.mean_latency(),
        **latency_summary(report.outcomes),
        "p95_during_resync": (latency_summary(storm)["p95_latency"]
                              if storm else 0.0),
        **resync,
        "client_plane_rpcs": plane_total("client", "rpcs_in"),
        "client_plane_bytes": plane_total("client", "bytes_in"),
        "sync_plane_rpcs": plane_total("sync", "rpcs_in"),
        "sync_plane_bytes": plane_total("sync", "bytes_in"),
    }


_register(Scenario(
    name="sync_plane",
    doc="""Client tail latency under a resync storm, one NIC vs two (S4a).

    The capacity loop (only the shard hosts charge service time) under
    an aggressive anti-entropy sweep plus an outage whose recovery
    triggers a full-arc resync.  The row carries both planes' traffic
    meters and the client percentiles overall and during the storm.
    """,
    params=dict(dedicated_sync_nic=False, shards=3, replication=2, clients=6,
                txns_per_client=50, server_hosts=4, scheme="independent",
                shard_service_time=0.012, sweep_interval=0.1,
                mean_think_time=0.15, max_attempts=10, rpc_timeout=5.0,
                fixed_latency=0.002, outage=(2.0, 6.0), victim_index=0,
                seed=7),
    tiny=tuple(dict(dedicated_sync_nic=d, clients=4, txns_per_client=12,
                    server_hosts=2, outage=(1.0, 3.0)) for d in (False, True)),
    config=lambda p: dict(
        shard_antientropy_interval=p.sweep_interval,
        # Same per-request cost for maintenance work either way: shared,
        # it charges the client queue; dedicated, the sync agent's own.
        sync_service_time=(p.shard_service_time if p.dedicated_sync_nic
                           else None)),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients), p.clients,
                          shard_service_time=p.shard_service_time),
    streams=lambda run: closed_loop(run, run.p.txns_per_client),
    script=_metered_shard_outage,
    auditors=lambda p: (CounterLedgerAudit(), UseListAudit()),
    counters=_sync_plane_row,
    clean=expecting(
        lost_bindings=0, stale_bindings=0, **_NO_USES_LEFT,
        sync_plane_metered_iff_dedicated=lambda r: (
            (r["sync_plane_rpcs"] > 0) == r["dedicated_sync_nic"])),
))


# -- S5: write-hot coherence -------------------------------------------

def _hot_key_streams(run: Run) -> list[TransactionStream]:
    """The flash crowd: every reader loops zipfian-weighted gets over
    the hot entries; the writer alternates naming churn (drop and
    re-add one ``Sv`` member -- a real naming write, what the hot
    detector and the pushes key off) with counter increments, one
    mutation per ``write_period`` on average."""
    p, uids = run.p, run.uids
    weights = [1.0 / (rank + 1) ** p.zipf_s for rank in range(len(uids))]
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / sum(weights)
        cumulative.append(acc)

    def reader_factory(stream_index):
        rng = SeededRng(p.seed, f"zipf{stream_index}")
        picks = []
        for _ in range(p.txns_per_client):
            toss = rng.random()
            picks.append(next(uid for uid, edge in zip(uids, cumulative)
                              if toss <= edge))
        return lambda index: invoke(picks[index], "get")

    def writer_factory(index):
        uid = uids[(index // 2) % len(uids)]
        return _churn_sv(run, uid) if index % 2 == 0 else invoke(uid, "add", 1)

    readers = [
        TransactionStream(runtime, reader_factory(i), count=p.txns_per_client,
                          rng=SeededRng(p.seed, f"hotread{i}"),
                          mean_think_time=p.mean_think_time,
                          max_attempts=p.max_attempts, read_only=True)
        for i, runtime in enumerate(run.runtimes[:p.clients])]
    writer = TransactionStream(run.clients["writer"], writer_factory,
                               count=p.writer_txns,
                               rng=SeededRng(p.seed, "hotwrite"),
                               mean_think_time=p.write_period,
                               max_attempts=p.max_attempts)
    return readers + [writer]


def _churn_sv(run: Run, uid):
    spare = run.sv_hosts[(run.uids.index(uid) + 1) % len(run.sv_hosts)]

    def work(txn):
        yield from txn._ctx.db.exclude(txn.action, [(uid, [spare])])
        yield from txn._ctx.db.include(txn.action, uid, spare)
        return True
    return work


def _hot_key_script(run: Run) -> None:
    system, p = run.system, run.p
    # Warm-up: enough committed naming writes per entry that the
    # detector's EWMA reflects the sustained write stream before the
    # crowd arrives (identical work in both modes for fairness).
    for _ in range(p.warmup_rounds):
        for uid in run.uids:
            system.run_transaction(run.clients["writer"], _churn_sv(run, uid))
    if p.churn:
        start = system.scheduler.now
        run.install(FaultPlan().outage(start + 2.0, start + 4.0,
                                       system.shard_hosts[0]))
        _add_one_reshard(run, 1.0, "hot-key-reshard")


def _hot_key_ledger(run: Run) -> dict[Any, int]:
    """The writer's committed increments (odd indices were ``add``s)."""
    adds = {uid: 0 for uid in run.uids}
    for index, outcome in enumerate(run.streams[-1].report.outcomes):
        if index % 2 == 1:
            adds[run.uids[(index // 2) % len(run.uids)]] += outcome.committed
    return adds


def _hot_key_row(run: Run) -> dict[str, Any]:
    system, p = run.system, run.p
    reads = [o for stream in run.streams[:-1] for o in stream.report.outcomes]
    committed = sum(o.committed for o in reads)
    window = max((o.finished_at for o in reads),
                 default=run.started) - run.started
    owners = [system.coherence_hosts.get(system.shard_router.shard_for(uid))
              for uid in run.uids]
    pushed = sum(owner is not None and owner.mode_of(str(uid)) == "push"
                 for uid, owner in zip(run.uids, owners))
    snapshot = system.metrics.snapshot()
    return {
        "mode": "push" if p.push else "pull",
        "staleness_budget": p.staleness_budget,
        "offered": len(reads), "committed": committed,
        "commit_rate": rate(committed, len(reads)),
        "throughput": rate(committed, window),
        **latency_summary(reads), **cache_summary(system),
        "writes_committed": run.streams[-1].report.committed,
        "pushed_entries": pushed,
        "pushes_sent": counter_sum(snapshot, "coherence.pushes_sent"),
        "pushes_applied": counter_sum(snapshot, "coherence.pushes_applied"),
        "registrations": counter_sum(snapshot, "coherence.registrations"),
        **_churn_fields(run),
        "coherence_handovers": (run.migrations[0].get("coherence_handovers", 0)
                                if run.migrations else 0),
    }


_register(Scenario(
    name="hot_key",
    doc="""A zipfian flash crowd on write-hot entries, pull vs push (S5).

    Readers hammer a few entries whose group views a concurrent writer
    keeps mutating, at an equal staleness budget: a lease that short
    under pull, owner-pushed invalidation under push.  ``churn=True``
    lands a live reshard and a shard-host outage mid-crowd.
    """,
    params=dict(push=True, shards=2, staleness_budget=0.05,
                registration_ttl=30.0, replication=2, clients=24,
                txns_per_client=40, server_hosts=3, hot_objects=4, zipf_s=1.1,
                shard_service_time=0.012, mean_think_time=0.002,
                fixed_latency=0.002, write_period=0.25, writer_txns=80,
                warmup_rounds=4, hot_write_rate=0.2, max_attempts=5,
                rpc_timeout=5.0, seed=7, churn=False),
    tiny=(dict(clients=4, txns_per_client=6, writer_txns=16,
               warmup_rounds=2),),
    config=lambda p: dict(
        binding_scheme="standard", nameserver_lease=p.staleness_budget,
        nameserver_cache_ledger=True, nameserver_push_invalidation=p.push,
        nameserver_renewal=p.push,
        nameserver_hot_write_rate=p.hot_write_rate,
        nameserver_registration_ttl=p.registration_ttl if p.push else None,
        dedicated_sync_nic=True),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients, "writer"),
                          p.hot_objects, sv_copies=2,
                          type_name="hot_key.Counter",
                          shard_service_time=p.shard_service_time),
    streams=_hot_key_streams,
    script=_hot_key_script,
    ledger=_hot_key_ledger,
    auditors=lambda p: (CounterLedgerAudit(invented="invented_bindings",
                                           read_only=False),
                        CacheLedgerAudit()),
    counters=_hot_key_row,
    clean=expecting(
        ledger_violations=0, lost_bindings=0, invented_bindings=0,
        push_plane_engaged=lambda r: r["mode"] == "pull" or (
            r["pushed_entries"] > 0 and r["pushes_applied"] > 0
            and r["registrations"] > 0)),
))


# -- S6: the batched commit plane --------------------------------------

def _commit_batching_row(run: Run) -> dict[str, Any]:
    p, report, snapshot = run.p, run.report, run.settled_metrics
    elapsed = last_finish(report, run.ended)
    batch_sizes = snapshot.get("commit_batch.batch_size")
    row = {
        "batching": p.batching, "shards": p.shards,
        "streams": len(run.streams), **load_summary(report),
        "elapsed": elapsed, "throughput": rate(report.committed, elapsed),
        "mean_latency": report.mean_latency(),
        **latency_summary(report.outcomes),
        "rpcs_sent": counter_sum(snapshot, ".rpcs_out"),
        "batched_rpcs": snapshot.get("commit_batch.batched_rpcs", 0),
        "batched_items": snapshot.get("commit_batch.items", 0),
        "mean_batch_size": (batch_sizes["mean"]
                            if isinstance(batch_sizes, dict) else 0.0),
        "log_forces": counter_sum(snapshot, ".log_forces"),
        "log_force_joins": counter_sum(snapshot, ".log_force_joins"),
    }
    if p.churn:
        row["crashed_host"] = run.victim
    return row


def _store_outage(run: Run) -> None:
    if run.p.churn:
        run.victim = run.st_hosts[run.p.victim_index]
        run.install(FaultPlan().outage(*run.p.outage, run.victim),
                    settle=30.0)


_register(Scenario(
    name="commit_batching",
    doc="""Write throughput with the batched commit plane off or on (S6).

    A write-only loop built for *commit-path* pressure: many
    simultaneous streams per client node, ``Sv`` and ``St`` on separate
    hosts, and only the store hosts charge service time (the simulated
    disk).  Both rows arm ``log_force_interval`` -- the same durability
    model at equal offered load.  The metered counters are read before
    the audit's own traffic.  ``churn=True`` (``replication >= 2``)
    crashes one store host mid-run.
    """,
    params=dict(batching=True, shards=8, clients=4, streams_per_client=64,
                txns_per_stream=12, server_hosts=4, store_hosts=8,
                scheme="standard", lease=5.0, store_service_time=0.004,
                commit_batch_window=0.008, log_force_interval=0.003,
                mean_think_time=0.0, fixed_latency=0.002, max_attempts=10,
                rpc_timeout=5.0, replication=1, churn=False,
                outage=(0.4, 1.2), victim_index=0, seed=7),
    tiny=tuple(dict(clients=2, streams_per_client=16, txns_per_stream=4,
                    **case)
               for case in (dict(batching=True), dict(batching=False),
                            # At this size the run lasts ~0.25 s: the
                            # outage must start inside it to kill batches.
                            dict(replication=2, churn=True, rpc_timeout=0.3,
                                 outage=(0.05, 0.6)))),
    config=lambda p: dict(nameserver_cache_ledger=p.lease is not None,
                          commit_batching=p.batching,
                          rpc_pipelining=p.batching),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients),
                          p.clients * p.streams_per_client,
                          store_hosts=p.store_hosts, sv_copies=p.replication,
                          st_copies=p.replication,
                          type_name="commit_batch.Counter",
                          store_service_time=p.store_service_time),
    streams=lambda run: closed_loop(run, run.p.txns_per_stream,
                                    per_client=run.p.streams_per_client),
    script=_store_outage,
    auditors=lambda p: (CounterLedgerAudit(),) if p.churn else (),
    counters=_commit_batching_row,
    clean=expecting(
        commit_rate=1.0,
        ledger_balances=lambda r: (r.get("lost_bindings", 0) == 0
                                   and r.get("stale_bindings", 0) == 0),
        batches_engage=lambda r: not r["batching"] or (
            r["mean_batch_size"] > 1.5 and r["log_forces"] < r["committed"])),
))


# -- S8: gray failures -------------------------------------------------

def _gray_script(run: Run) -> None:
    system, p = run.system, run.p
    run.victims = system.shard_hosts[:p.gray_hosts]
    run.fully_gray_arcs = sum(
        set(system.shard_router.preference_list(uid, p.replication))
        <= set(run.victims) for uid in run.uids)
    plan = FaultPlan()
    for victim in run.victims:
        plan.gray(*p.gray_window, victim, factor=p.degrade_factor,
                  drop=p.degrade_drop)
    # Settle: the restore, probation expiry and any in-flight migration.
    run.install(plan, settle=12.0)
    run.autoscaler = system.enable_autoscaler(
        p95_up=p.p95_up, interval=p.autoscaler_interval,
        max_shards=p.shards + 1)


def _divergence_repairs(run: Run) -> int:
    return counter_sum(run.system.metrics.snapshot(),
                       "replica_io.divergence_repairs")


def _gray_row(run: Run) -> dict[str, Any]:
    system, p, report = run.system, run.p, run.report
    trackers = system.peer_health.values()
    return {
        "mode": "gray", "victims": list(run.victims),
        "fully_gray_arcs": run.fully_gray_arcs,
        "gray_window": p.gray_window, "degrade_factor": p.degrade_factor,
        "degrade_drop": p.degrade_drop,
        **load_summary(report), **latency_summary(report.outcomes),
        "demotions": sum(t.demotions for t in trackers),
        "gray_peers_at_end": sorted({peer for t in trackers
                                     for peer in t.gray_peers()}),
        # One counter under both names: the autoscaler has only the
        # p95 trigger, and the row keeps its columns.
        "p95_scale_ups": run.autoscaler.scale_ups_triggered,
        "scale_ups_triggered": run.autoscaler.scale_ups_triggered,
        "shards_before": p.shards,
        "shards_after": len(system.shard_router.nodes),
        "degraded_drops": system.network.messages_degraded_dropped,
        "divergence_repairs": _divergence_repairs(run),
    }


def _partition_script(run: Run) -> None:
    """Each writer loses one *direction* to a different replica: wa can
    only reach the primary, wb only the secondary.  ReplicaIO's write
    fan-out skips an unreachable replica rather than failing the write,
    so each commit lands on one copy -- equal counts, divergent
    content."""
    [uid] = run.uids
    run.replicas = run.system.shard_router.preference_list(uid, 2)
    run.install(FaultPlan()
                .partial_partition(*run.p.partition_window, "wa",
                                   run.replicas[1])
                .partial_partition(*run.p.partition_window, "wb",
                                   run.replicas[0]))


def _partition_load(run: Run) -> None:
    system, p, [uid] = run.system, run.p, run.uids
    start, end = p.partition_window

    def exclude(host):
        def work(txn):
            yield from txn._ctx.db.exclude(txn.action, [(uid, [host])])
            return True
        return work

    system.run(until=start + 0.05)
    # ``exclude`` is a group-view write, so the object's St is the full
    # host list: the writers carve different members out of it.
    results = [system.run_transaction(run.clients[writer],
                                      exclude(run.sv_hosts[member]))
               for writer, member in (("wa", 1), ("wb", 2))]
    run.writer_commits = sum(r.committed for r in results)
    assert system.scheduler.now < end, (
        "writers outran the partition window; widen it")
    # Capture the divergence before the sweeps repair it: both copies
    # at the same counts with different host sets proves a real split,
    # not just a lagging replica.  (Their digests differ by design.)
    dbs = [system.db.shards[shard] for shard in run.replicas]
    run.views = [tuple(db.get_view((0,), str(uid))) for db in dbs]
    counts = {tuple(count for count, _digest in db.entry_versions(str(uid)))
              for db in dbs}
    system._release_probe_locks()
    run.diverged = len(set(run.views)) > 1 and len(counts) == 1
    # Heal, then two sweep rounds: the replica with the smaller digest
    # pulls the other's copy in the first, the second proves convergence.
    system.run(until=end + 2 * p.sweep_interval + 1.0)
    run.adds = {uid: sum(
        system.run_transaction(run.clients["aud"],
                               invoke(uid, "add", 1)).committed
        for _ in range(p.audit_adds))}


def _partition_row(run: Run) -> dict[str, Any]:
    system, [uid] = run.system, run.uids
    final_view = set(system.db.shards[run.replicas[0]].get_view((0,),
                                                                str(uid)))
    system._release_probe_locks()
    return {
        "mode": "partition", "partition_window": run.p.partition_window,
        "replicas": list(run.replicas), "writer_commits": run.writer_commits,
        "diverged_during_partition": run.diverged,
        "diverged_views": sorted(run.views),
        "divergence_repairs": _divergence_repairs(run),
        "final_view": sorted(final_view),
        # Members of the converged view that no writer ever installed.
        "invented_bindings": len(final_view - set(run.sv_hosts)),
        "audit_adds_committed": run.adds[uid],
    }


_PARTIAL_PARTITION = Scenario(
    name="gray_failure[partition]",
    doc="""Equal-count divergence from a partial partition (S8b).

    Two writers each lose one direction to a different replica of the
    same entry and commit conflicting naming writes; after the heal the
    anti-entropy sweep must converge the replicas on the greater
    version (equal counts, so the greater content digest).
    """,
    params=dict(mode="partition", rpc_timeout=0.3, fixed_latency=0.002,
                partition_window=(1.0, 3.0), sweep_interval=4.0,
                audit_adds=5, seed=7),
    tiny=(),
    config=lambda p: dict(nameserver_shards=2, nameserver_replication=2,
                          binding_scheme="standard",
                          shard_antientropy_interval=p.sweep_interval),
    shape=lambda p: Shape(3, ("wa", "wb", "aud"), 1, sv_copies=3,
                          st_copies=3, type_name="gray.Counter"),
    script=_partition_script,
    load=_partition_load,
    ledger=lambda run: run.adds,
    auditors=lambda p: (CounterLedgerAudit(reader="aud"),
                        PlacementAudit(misplaced=None)),
    counters=_partition_row,
    clean=expecting(
        writer_commits=2, diverged_during_partition=True,
        replica_disagreements=0, invented_bindings=0, lost_bindings=0,
        stale_bindings=0,
        divergence_repaired=lambda r: r["divergence_repairs"] >= 1),
)

_register(Scenario(
    name="gray_failure",
    doc="""Correlated gray shard hosts under the capacity loop (S8a).

    ``gray_hosts`` shard hosts turn slow and lossy at once, exercising
    both detectors: per-client peer health for arcs with one gray
    replica, the autoscaler's p95 trigger for arcs that are gray
    throughout.  ``mode="partition"`` runs the divergence repair.
    """,
    params=dict(mode="gray", shards=3, replication=2, clients=10,
                txns_per_client=60, streams_per_client=4, server_hosts=4,
                mean_think_time=0.03, max_attempts=10, rpc_timeout=0.25,
                fixed_latency=0.002, gray_window=(2.0, 5.0), gray_hosts=2,
                degrade_factor=40.0, degrade_drop=0.1, p95_up=0.05,
                autoscaler_interval=0.5, participant_retries=2, seed=7),
    tiny=(dict(), dict(mode="partition")),
    config=lambda p: dict(binding_scheme="standard",
                          nameserver_peer_health=True,
                          shard_antientropy_interval=2.0),
    shape=lambda p: Shape(p.server_hosts, clients(p.clients),
                          p.clients * p.streams_per_client),
    streams=lambda run: closed_loop(run, run.p.txns_per_client,
                                    per_client=run.p.streams_per_client),
    script=_gray_script,
    auditors=lambda p: (CounterLedgerAudit(),),
    counters=_gray_row,
    clean=expecting(
        commit_rate=1.0, lost_bindings=0, stale_bindings=0,
        gray_replicas_demoted=lambda r: r["demotions"] > 0,
        p95_trigger_scaled=lambda r: r["scale_ups_triggered"] >= 1),
    modes={"partition": _PARTIAL_PARTITION},
))


# -- The paper's own experiments: figures 1-8 and sections 2.3-5 -------
#
# One object on named Sv/St hosts, one replication policy, a churn or
# crash script, and the paper's shape claim as ``clean``.  Every run is
# also audited: no committed increment may be lost or invented.

POLICIES = {"single_copy_passive": SingleCopyPassive,
            "coordinator_cohort": CoordinatorCohortReplication,
            "active": ActiveReplication}


def _paper(name: str, doc: str, params: dict[str, Any], tiny, claims,
           use_lists: bool = False, **hooks: Any) -> Scenario:
    """Register a paper experiment.  Its counter ledger is audited and
    must balance beside the paper's own ``claims`` (which may pin a
    count instead); with ``use_lists`` (every binding has unbound when
    the load ends) the use-list ledger must read zero too.  A scripted
    ``load`` leaves its row and its ledger on the run as ``run.row``
    and ``run.adds``."""
    if "load" in hooks:
        hooks = {"counters": lambda run: run.row,
                 "ledger": lambda run: run.adds, **hooks}
    ledgers = {"lost_bindings": 0, "stale_bindings": 0}
    if use_lists:
        ledgers.update(_NO_USES_LEFT)
    return _register(Scenario(
        name=name, doc=doc, params=params, tiny=tiny,
        auditors=lambda p: (CounterLedgerAudit(),) + (
            (UseListAudit(),) if use_lists else ()),
        clean=expecting(**{**ledgers, **claims}),
        **hooks))


def _one_object(p, clients_=("c0",)) -> Shape:
    """One counter with ``|Sv| = p.sv`` on ``sv*`` and ``|St| = p.st``
    on ``st*`` (``p.colocated``: one host ``s0`` is both); every client
    runs ``p.policy``."""
    policy = POLICIES[getattr(p, "policy", "single_copy_passive")]
    return Shape(p.sv, clients_, 1,
                 store_hosts=None if getattr(p, "colocated", False) else p.st,
                 sv_copies=p.sv, st_copies=p.st,
                 policies=dict.fromkeys(clients_, policy))


def steps(*script: Any):
    """A transaction body factory: each step is an operation tuple to
    invoke on the object or a pause in seconds; returns the last value."""
    def body(uid):
        def work(txn):
            value = None
            for step in script:
                if isinstance(step, float):
                    yield Timeout(step)
                else:
                    value = yield from txn.invoke(uid, *step)
            return value
        return work
    return body


def _use_counts(system, uid) -> int:
    """Use-list counters currently held on the entry, over all hosts."""
    snapshot = system.db.get_server_with_uses((0,), str(uid))
    system._release_probe_locks()
    return sum(sum(counts.values()) for counts in snapshot.uses.values())


def _activated(run: Run) -> dict[str, int]:
    """The value each activated server replica currently holds."""
    uid = str(run.uids[0])
    hosts = {host: run.system.nodes[host].rpc.service("servers")
             for host in run.sv_hosts}
    return {host: Counter.deserialise(servers.get_state(uid)[0]).value
            for host, servers in hosts.items() if servers.has_server(uid)}


# F1: replica divergence under partial delivery.

def _sender_crash(run: Run) -> None:
    system, [uid], sender = run.system, run.uids, run.clients["c0"]
    sender.node.mcast.stagger = 0.01

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.scheduler.schedule(run.p.crash_offset, sender.node.crash)
        yield from txn.invoke(uid, "add", 1)

    sender.transaction(work)
    # Observe before the janitors (2 s rounds) abort the dead client's
    # action and mask the divergence...
    system.run(until=1.0)
    states = _activated(run)
    run.row = {"reliable": run.p.reliable_multicast, "states": states,
               "diverged": len(set(states.values())) > 1}
    # ...then let it: nothing committed, so the audit must read zero.
    run.adds, run.settle = {uid: 0}, 10.0


_paper(
    "paper_fig1_divergence",
    """Replica divergence when a sender crashes mid-delivery (fig. 1).

    The client crashes ``crash_offset`` into delivering its second
    invocation to a two-member group: with naive per-member unicasts one
    replica may see it and the other not; the reliable ordered multicast
    delivers to all or none.
    """,
    dict(reliable_multicast=True, crash_offset=0.004, sv=2, st=1,
         policy="active", seed=1000),
    (dict(reliable_multicast=False), dict()),
    dict(reliable_multicast_prevents_divergence=lambda r: not (
        r["reliable"] and r["diverged"])),
    shape=lambda p: _one_object(p, ("aud", "c0")), load=_sender_crash)


# F2-F5 and E4: availability under stochastic churn.

def _churn(run: Run) -> None:
    p = run.p
    targets = {"servers": run.sv_hosts, "stores": run.st_hosts,
               "all": run.sv_hosts + run.st_hosts}[p.churn]
    run.system.stochastic_faults(list(dict.fromkeys(targets)), mttf=p.mttf,
                                 mttr=p.mttr, stop_after=p.stop_after)
    # Settle: the last repair, then the recovery managers' Includes.
    run.quiet_after, run.settle = p.stop_after, 60.0


def _stream_summary(report, metrics, policy: str) -> dict[str, Any]:
    """One policy's fate under churn; ``masked`` counts the in-action
    crashes it absorbed without aborting."""
    return {
        **load_summary(report),
        "first_try_rate": rate(sum(o.committed and o.attempts == 1
                                   for o in report.outcomes), report.offered),
        "retries": report.retries,
        "masked": sum(value for name, value in metrics.items()
                      if name.startswith(f"policy.{policy}.")
                      and name.endswith("_masked")),
        "abort_reasons": report.abort_reasons(),
    }


def _availability_row(run: Run) -> dict[str, Any]:
    metrics = run.settled_metrics
    return {"sv": run.p.sv, "st": run.p.st, "seed": run.p.seed,
            **_stream_summary(run.report, metrics, run.p.policy),
            "stores_excluded": metrics.get("commit.stores_excluded", 0),
            # Commits whose every prepared store died between the two
            # phases: 2PC without a coordinator log keeps them nowhere.
            "durability_lost": metrics.get("commit.durability_lost", 0)}


def _availability(name: str, doc: str, tiny, claims, body=None, adds: int = 1,
                  shape=_one_object, counters=_availability_row,
                  **params: Any) -> Scenario:
    """A closed loop on one replicated object while ``churn`` hosts
    crash (mean ``mttf``) and recover (mean ``mttr``) until
    ``stop_after``; a committed transaction adds ``adds``."""
    return _paper(
        name, doc,
        {**dict(sv=1, st=1, colocated=False, policy="single_copy_passive",
                churn="all", mttf=30.0, mttr=6.0, stop_after=400.0, txns=60,
                mean_think_time=1.0, max_attempts=1, seed=7), **params},
        tiny, claims, shape=shape, counters=counters, script=_churn,
        config=lambda p: dict(enable_recovery_managers=True),
        streams=lambda run: closed_loop(run, run.p.txns, body=body),
        ledger=lambda run: {uid: adds * committed for uid, committed
                            in run.stream_ledger().items()})


_availability(
    "paper_fig2_single_copy",
    """The non-replicated configuration |Sv| = |St| = 1 (fig. 2).

    An action aborts whenever the server node or the store node is down
    or crashes under it -- nothing is masked; ``colocated`` is the
    special case alpha = beta.
    """,
    (dict(mttf=20.0, txns=40, stop_after=60.0),),
    dict(every_crash_is_user_visible=lambda r: r["commit_rate"] < 1.0,
         # One store, no coordinator log: a commit it dies under between
         # the phases may be reported and survive nowhere.
         lost_bindings=lambda r: r["lost_bindings"] <= r["durability_lost"]),
    mttf=80.0, mttr=5.0, txns=240)

_availability(
    "paper_fig3_replicated_state",
    """Replicated state, |Sv| = 1 and |St| > 1, store churn only (fig. 3).

    One server checkpoints to every St store at commit; crashed stores
    are Excluded and re-Included after recovery, so store crashes are
    masked while one store remains.
    """,
    (dict(st=2, txns=30, stop_after=60.0),), {},
    st=2, churn="stores", txns=80)

_availability(
    "paper_fig4_replicated_servers",
    """Replicated servers, |Sv| = k over one store, server churn (fig. 4).

    Active replication; long actions (three spaced invocations) so that
    crashes land *inside* actions, where masking -- not just rebinding
    -- is what preserves the commit.
    """,
    (dict(sv=2, txns=15, stop_after=40.0),), {},
    body=steps(("add", 1), 0.4, ("add", 1), 0.4, ("add", 1), 0.4), adds=3,
    sv=3, policy="active", churn="servers", mean_think_time=0.5)

_availability(
    "paper_fig5_general_case",
    """The general case |Sv| > 1 and |St| > 1, combined churn (fig. 5).

    Figures 2-4 are the edges of this matrix; each axis masks its own
    class of failure.
    """,
    (dict(sv=3, st=2, txns=20, stop_after=40.0),), {},
    sv=3, st=3, policy="active", stop_after=300.0)

_availability(
    "paper_policy_comparison",
    """The three replication policies head to head (section 2.3, E4).

    One deployment, so the server churn is literally the same: three
    clients, each named after its policy and working on its own object,
    all three objects served by the same three hosts.  Long actions
    with a read phase before the single write -- coordinator-cohort can
    only mask a coordinator crash while the action holds no dirty
    state, so the read phase is where its masking shows.
    """,
    # Long enough that a crash lands inside an action of each
    # replicated policy: active's actions are short (an invocation
    # returns once every member has answered), so few crashes do.
    (dict(txns=40, stop_after=120.0),),
    dict(
        only_replicated_servers_mask=lambda r: all(
            (r[policy]["masked"] > 0) == (policy != "single_copy_passive")
            for policy in POLICIES),
        restart_recovers_availability=lambda r: all(
            r[policy]["commit_rate"] >= 0.9 for policy in POLICIES)),
    body=steps(("get",), 0.5, ("get",), 0.5, ("add", 1), 0.2),
    shape=lambda p: Shape(p.sv, list(POLICIES), len(POLICIES),
                          store_hosts=p.st, sv_copies=p.sv, st_copies=p.st,
                          policies=POLICIES),
    counters=lambda run: {
        policy: _stream_summary(stream.report, run.settled_metrics, policy)
        for policy, stream in zip(POLICIES, run.streams)},
    sv=3, st=2, churn="servers", mttf=25.0, stop_after=350.0,
    mean_think_time=0.5, max_attempts=3)


# F6-F8: the three binding schemes after one server crash.

def _sequential_binds(run: Run) -> None:
    system, p, [uid] = run.system, run.p, run.uids
    if p.crash:
        system.nodes[run.sv_hosts[0]].crash()

    def work(txn):
        value = yield from txn.invoke(uid, "add", 1)
        if p.client_aborts:
            txn.abort("application chose to abort")
        return value

    results = [system.run_transaction(runtime, work)
               for _ in range(p.rounds) for runtime in run.runtimes]
    run.adds = {uid: sum(r.committed for r in results)}
    count = system.metrics.counter_value
    snapshot = system.metrics.snapshot()
    run.row = {
        "scheme": p.scheme, "crash": p.crash, "client_aborts": p.client_aborts,
        "offered": len(results), "committed": run.adds[uid],
        "wasted_binds": count(
            f"binding.{run.runtimes[0].scheme.name}.failed_attempts"),
        # Every lock a binding takes that is not a read: the use-list
        # modes replaced the paper's write lock on Increment/Decrement.
        "db_write_locks": sum(counter_sum(snapshot, f".server_db.locks.{mode}")
                              for mode in ("write", "exclude_write",
                                           "increment", "decrement")),
        "mean_latency": sum(r.duration for r in results) / len(results),
        "sv_after": system.db_sv(uid),
    }


_paper(
    "paper_binding_schemes",
    """Binding after a server crash, scheme by scheme (figs. 6-8).

    ``clients`` take turns running ``rounds`` transactions each with
    ``sv0`` dead.  Standard nested actions (fig. 6) never update ``Sv``:
    every transaction pays the dead-server probe, and no binding takes
    a database write lock.  Independent (fig. 7) and nested top-level
    (fig. 8) actions Remove the dead server and maintain use lists --
    a non-read lock on every binding (``db_write_locks`` counts WRITE,
    EXCLUDE_WRITE and the use-list modes) -- and their updates survive
    the client action's abort (``client_aborts``).
    """,
    dict(scheme="standard", clients=8, rounds=4, crash=True,
         client_aborts=False, sv=3, st=1, seed=7),
    tuple(dict(scheme=scheme, clients=2, rounds=2) for scheme in
          ("standard", "independent", "nested_top_level")),
    dict(only_a_client_abort_aborts=lambda r: r["committed"] == (
             0 if r["client_aborts"] else r["offered"]),
         # Static Sv: every transaction re-probes the dead server.  Use
         # lists: only the first binder does, and its Remove repairs Sv.
         wasted_binds=lambda r: r["wasted_binds"] == (
             0 if not r["crash"] else
             r["offered"] if r["scheme"] == "standard" else 1),
         sv_repaired_unless_static=lambda r: (
             ("sv0" in r["sv_after"])
             == (r["scheme"] == "standard" or not r["crash"])),
         # The one write lock of a standard row is object creation.
         standard_binding_takes_no_db_write_lock=lambda r: (
             r["scheme"] != "standard" or r["db_write_locks"] == 1)),
    shape=lambda p: _one_object(p, clients(p.clients)),
    load=_sequential_binds, use_lists=True)

def _contention_row(run: Run) -> dict[str, Any]:
    locks = run.system.db.shard_db(str(run.uids[0])).server_db.locks
    return {
        **load_summary(run.report), "retries": run.report.retries,
        "lock_refusals": locks.refusals + locks.promotion_refusals,
        "lock_parks": locks.parks,
        "locks_left": len(lock_leftovers(run.system)),
        "decrement_refusals": counter_sum(run.system.metrics.snapshot(),
                                          ".server_db.locks_refused.decrement")}


_paper(
    "paper_binding_contention",
    """Concurrent binders under the independent scheme (fig. 7).

    Every binding locks the entry for its Increment, so simultaneous
    binders exclude each other -- the cost the paper accepts.  A binder
    younger than the holder parks for the lock (``lock_parks``); an
    older one is refused, and bounded restarts absorb it.  An unbind's
    Decrement shares the entry with a binder and with other Decrements
    (``decrement_refusals`` counts the ones still refused, by a Remove
    or a snapshot read).  Once the load has ended no lock table holds a
    lock or parks a request (``locks_left``).
    """,
    dict(scheme="independent", clients=6, txns=3, sv=2, st=1,
         mean_think_time=0.3, max_attempts=10, seed=13),
    (dict(clients=3, txns=2),),
    dict(commit_rate=1.0, locks_left=0,
         contention_occurred=lambda r: r["lock_refusals"] + r["lock_parks"] > 0),
    shape=lambda p: _one_object(p, clients(p.clients)),
    streams=lambda run: closed_loop(run, run.p.txns),
    counters=_contention_row, use_lists=True)


# F7 / E6: a client crash mid-binding, atomic or traditional name server.

def _client_crash(run: Run) -> None:
    system, [uid], victim = run.system, run.uids, run.clients["c1"]

    def excluding(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes[run.st_hosts[1]].crash()  # commit must Exclude it

    def dying(txn):
        yield from txn.invoke(uid, "add", 1)  # binds and Increments
        victim.node.crash()
        yield from txn.invoke(uid, "add", 1)

    run.adds = {uid: int(system.run_transaction(run.clients["c0"],
                                                excluding).committed)}
    run.row = {"atomic": not run.p.nonatomic_name_server,
               "st_after_exclude": system.db_st(uid),
               "survivor_version": system.store_versions(uid)[run.st_hosts[0]]}
    crashed_at = system.scheduler.now
    victim.transaction(dying)
    system.run(until=crashed_at + 1.5)
    run.row["orphans_at_crash"] = _use_counts(system, uid)
    system.run(until=crashed_at + 20.0)
    run.row["orphans_after"] = _use_counts(system, uid)


_paper(
    "paper_client_crash",
    """A client dies mid-binding; a store dies before commit
    (fig. 7's cleanup protocol; section 5's non-atomic name server, E6).

    Client ``c0`` commits while a store crashes: the Exclude must be
    all-or-nothing whether or not the *server* database is atomic --
    why the paper keeps action support for the state database.  Client
    ``c1`` then crashes between Increment and action end, leaving
    orphaned use counts: the atomic name node's janitor lowers them to
    the nothing the silent client holds, the non-atomic server cannot;
    its read locks the janitor releases either way.
    """,
    dict(nonatomic_name_server=False, scheme="independent", sv=2, st=2,
         seed=7),
    (dict(nonatomic_name_server=False), dict(nonatomic_name_server=True)),
    dict(st_after_exclude=["st0"], survivor_version=2,
         crashed_client_leaves_orphans=lambda r: r["orphans_at_crash"] > 0,
         only_the_atomic_server_repairs_them=lambda r: (
             (r["orphans_after"] == 0) == r["atomic"])),
    shape=lambda p: _one_object(p, clients(2)), load=_client_crash)


# E1: the exclude-write lock.

def _exclude_under_readers(run: Run) -> None:
    system, [uid] = run.system, run.uids

    def reading(txn):
        value = yield from txn.invoke(uid, "get")
        yield Timeout(3.0)  # keep the action, and its read locks, open
        return value

    def writing(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes[run.st_hosts[1]].crash()  # commit must Exclude it

    readers = [runtime.transaction(reading, read_only=True)
               for runtime in run.runtimes[1:]]
    system.run(until=0.5)  # let every reader bind and lock
    result = system.run_transaction(run.clients["w0"], writing)
    for reader in readers:
        system.run_until(reader)
    run.adds = {uid: int(result.committed)}
    run.row = {
        "exclude_write_lock": run.p.use_exclude_write_lock,
        "readers": run.p.readers, "writer_committed": result.committed,
        "abort_reason": result.reason or "-",
        "promotion_refusals":
            system.db.shard_db(str(uid)).state_db.locks.promotion_refusals}


_paper(
    "paper_exclude_write_lock",
    """Committing an Exclude under concurrent readers (section 4.2.1).

    Readers hold read locks on the object's ``St`` entry while a writer
    commits after a store crash.  Promoting to plain WRITE conflicts
    with them and the writer must abort; the EXCLUDE_WRITE mode is
    shareable with read locks and the commit proceeds.
    """,
    dict(use_exclude_write_lock=True, readers=3, sv=2, st=2, seed=7),
    (dict(), dict(use_exclude_write_lock=False)),
    dict(only_plain_write_promotion_is_refused=lambda r: (
        r["writer_committed"] == (r["promotion_refusals"] == 0)
        == (r["exclude_write_lock"] or r["readers"] == 0))),
    # Readers whose read-optimisation rotation (a CRC of the name) lands
    # them away from the writer's server ``sv0``: the only contention
    # left is on the naming-database entry, the paper's scenario.
    shape=lambda p: _one_object(p, ["w0", *[
        name for name in (f"r{i}" for i in range(16))
        if zlib.crc32(name.encode()) % p.sv][:p.readers]]),
    load=_exclude_under_readers)


# E5: the binding lifetime rule.

def _crash_and_recover_mid_action(run: Run) -> None:
    system, [uid], client = run.system, run.uids, run.runtimes[0]
    active = run.p.policy == "active"

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        bound = txn.bindings[uid].live_hosts
        before, victim = len(bound), system.nodes[bound[-1]]
        victim.crash()
        if active:  # the victim's silence breaks its binding
            yield from txn.invoke(uid, "add", 1)
        victim.recover()
        yield Timeout(5.0)  # the victim is healthy again...
        yield from txn.invoke(uid, "add", 1)  # ...and must not be rebound
        return before, len(txn.bindings[uid].live_hosts)

    result = system.run_transaction(client, work, timeout=300.0)
    retry = system.run_transaction(client, invoke(uid, "add", 1))
    run.adds = {uid: 3 * (active and result.committed) + retry.committed}
    run.row = {"policy": run.p.policy, "in_flight_committed": result.committed,
               "in_flight_reason": result.reason or "-",
               "group": result.value if result.committed else None,
               "retry_committed": retry.committed}


_paper(
    "paper_binding_lifetime",
    """A broken binding stays broken till the action ends
    (section 3.1, E5).

    A bound server crashes mid-action and is up again before the action
    next touches it.  Single copy: the action must abort all the same
    (the replica's volatile state died) and a fresh action binds the
    recovered node.  Active: the action commits on the survivors and
    the recovered replica is not re-admitted to its group.
    """,
    dict(policy="single_copy_passive", sv=2, st=1, seed=7),
    (dict(), dict(policy="active", sv=3)),
    dict(retry_committed=True,
         broken_bindings_stay_broken=lambda r: (
             r["group"] == (3, 2) if r["policy"] == "active"
             else not r["in_flight_committed"])),
    config=lambda p: dict(enable_recovery_managers=True),
    shape=_one_object, load=_crash_and_recover_mid_action)


# E2: the read-only binding optimisation.

def _bind_like_writers(run: Run) -> None:
    for runtime in run.runtimes:
        runtime.scheme.read_only_single_server = run.p.single_server
        if not run.p.single_server:  # bind the whole candidate set
            runtime.policy.activation_degree = lambda: None


_paper(
    "paper_read_optimisation",
    """Read-only clients bind one convenient server (section 4.1.2).

    With the optimisation each reader binds exactly one server, spread
    over ``Sv``; without it every reader binds the full group.  Either
    way nothing is copied back to the stores for a read-only action.
    """,
    dict(single_server=True, readers=6, txns=5, sv=3, st=1,
         mean_think_time=0.05, max_attempts=1, seed=7),
    (dict(readers=3, txns=2), dict(single_server=False, readers=3, txns=2)),
    dict(commit_rate=1.0, store_writes=0,
         readers_spread_over_servers=lambda r: (
             not r["single_server"] or r["servers_activated"] > 1)),
    shape=lambda p: _one_object(p, [f"r{i}" for i in range(p.readers)]),
    streams=lambda run: closed_loop(run, run.p.txns, read_only=True),
    script=_bind_like_writers,
    ledger=lambda run: dict.fromkeys(run.uids, 0),
    counters=lambda run: {
        "single_server": run.p.single_server, **load_summary(run.report),
        "bind_attempts": run.settled_metrics.get(
            "binding.standard.attempts", 0),
        "servers_activated": len(_activated(run)),
        "store_writes": sum(run.system.nodes[host].object_store.commits
                            for host in run.st_hosts)})


# E3: store recovery, state refresh and Include.

def _store_outage_and_include(run: Run) -> None:
    system, p, [uid], client = run.system, run.p, run.uids, run.runtimes[0]
    victim, add = run.st_hosts[1], invoke(uid, "add", 1)
    results = [system.run_transaction(client, add)]  # warm everything up
    system.nodes[victim].crash()
    # The first commit after the crash performs the Exclude.
    results += [system.run_transaction(client, add)
                for _ in range(p.commits_while_down)]
    run.adds = {uid: sum(r.committed for r in results)}
    run.row = {"st_while_down": system.db_st(uid)}
    system.nodes[victim].recover()
    recovered_at = system.scheduler.now
    while (victim not in system.db_st(uid)
           and system.scheduler.now < recovered_at + 60.0):
        system.run(until=system.scheduler.now + 1.0)
    versions = system.store_versions(uid)
    run.row.update(
        include_window=system.scheduler.now - recovered_at,
        states_refreshed=system.recovery_managers[victim].states_refreshed,
        versions_equal=len(set(versions.values())) == 1,
        version=versions.get(victim, 0))


_paper(
    "paper_recovery_include",
    """Store recovery: refresh, then Include (section 4.2, E3).

    A store crashes, the next commit Excludes it, it recovers, refreshes
    its object states to the latest committed versions and re-Includes
    itself -- never with a stale state, however much it missed.
    """,
    dict(commits_while_down=3, sv=1, st=2, seed=7),
    (dict(commits_while_down=1),),
    dict(st_while_down=["st0"], versions_equal=True,
         refresh_ran=lambda r: r["states_refreshed"] >= 1,
         include_is_prompt=lambda r: r["include_window"] < 30.0),
    config=lambda p: dict(enable_recovery_managers=True),
    shape=_one_object, load=_store_outage_and_include)
