"""The five benchmark workloads.

Each ``build(seed, scale)`` boots a fresh :class:`DistributedSystem`,
creates the namespace, and returns a :class:`~perf.driver.Deployment`
whose ``load()`` runs the measured phase.  ``scale`` multiplies the
number of transactions only (1.0 = full size, 0.05 = smoke/warm-up);
topology and namespace never shrink, so every size exercises the same
code.  Everything random is drawn from ``seed``.

The definitions deliberately use only ``repro``'s top-level exports,
``repro.workload.TransactionStream``/``run_streams`` (inside
:mod:`perf.driver`) and ``FaultPlan`` -- never the canned scenarios in
``repro.workload.sweep`` -- so refactoring those cannot silently change
what is measured here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro import (
    ActiveReplication,
    CoordinatorCohortReplication,
    DistributedSystem,
    FaultPlan,
    LockMode,
    PersistentObject,
    SingleCopyPassive,
    SystemConfig,
    Txn,
    Uid,
    operation,
)

from perf.driver import Deployment, SpanLog, invoke_ops


class Counter(PersistentObject):
    """The benchmark object: one int, a read op and a write op."""

    TYPE_NAME = "perf.Counter"

    def __init__(self, uid: Uid, value: int = 0) -> None:
        super().__init__(uid)
        self.value = value

    def save_state(self, out: Any) -> None:
        out.pack_int(self.value)

    def restore_state(self, state: Any) -> None:
        self.value = state.unpack_int()

    @operation(LockMode.READ)
    def get(self) -> int:
        return self.value

    @operation(LockMode.WRITE)
    def add(self, amount: int) -> int:
        self.value += amount
        return self.value


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _boot(config: SystemConfig) -> tuple[DistributedSystem, SpanLog]:
    system = DistributedSystem(config)
    system.registry.register(Counter)
    return system, SpanLog(system)


def _create(system: DistributedSystem, homes: dict, sv: list[str],
            st: list[str]) -> Uid:
    uid = system.create_object(Counter(system.new_uid()), sv_hosts=sv,
                               st_hosts=st)
    homes[uid] = (sv, st)
    return uid


def _service_times(system: DistributedSystem, hosts: list[str],
                   base: float) -> None:
    """Charge ``base`` simulated seconds per request on ``hosts``.

    Each host lands within 5% of ``base`` as the seed decides (machines
    of one model are not identical): simulated timings then are not all
    multiples of one constant, and they differ from seed to seed.
    """
    rng = system.rng.substream("perf/host-speed")
    for host in hosts:
        system.nodes[host].rpc.service_time = base * rng.uniform(0.95, 1.05)


def _zipf_edges(n: int, s: float) -> list[float]:
    """Cumulative probabilities of ranks ``0..n-1`` under zipf(s)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    edges, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        edges.append(acc)
    return edges


# -- commit_write ----------------------------------------------------------------


def commit_write(seed: int, scale: float) -> Deployment:
    clients, streams_per_client = 4, 64
    system, log = _boot(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=8, binding_scheme="standard",
        nameserver_lease=5.0, nameserver_cache_ledger=True,
        commit_batching=True, commit_batch_window=0.008,
        rpc_pipelining=True, log_force_interval=0.003,
        rpc_timeout=5.0, fixed_latency=0.002))
    sv_hosts = [f"sv{i}" for i in range(4)]
    st_hosts = [f"st{i}" for i in range(8)]
    for host in sv_hosts:
        system.add_node(host, server=True)
    for host in st_hosts:
        system.add_node(host, store=True)
    _service_times(system, st_hosts, 0.004)  # the simulated disk
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    homes: dict = {}
    uids = [_create(system, homes, [sv_hosts[i % 4]], [st_hosts[i % 8]])
            for i in range(clients * streams_per_client)]
    # The seed decides which private counter each stream owns.
    owned = system.rng.substream("perf/ownership").shuffled(uids)

    def pick_for(uid: Uid) -> Callable:
        body = invoke_ops(uid, ("add", 1))
        return lambda _index: (uid, body, 1)

    for i, uid in enumerate(owned):
        log.stream(i, runtimes[i // streams_per_client], pick_for(uid),
                   count=_scaled(24, scale), think=0.0, max_attempts=10)
    return Deployment(system, log, uids, runtimes[0], log.run_streams,
                      settle=1.0, homes=homes)


# -- lookup_read -----------------------------------------------------------------


def lookup_read(seed: int, scale: float) -> Deployment:
    readers, namespace, hot = 24, 1024, 8
    system, log = _boot(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=4, nameserver_replication=2,
        binding_scheme="standard",
        nameserver_lease=0.05, nameserver_cache_ledger=True,
        nameserver_push_invalidation=True, nameserver_renewal=True,
        nameserver_hot_write_rate=0.2, nameserver_registration_ttl=30.0,
        dedicated_sync_nic=True, rpc_timeout=5.0, fixed_latency=0.002))
    # 32 objects a server host: the hosts' per-action work grows with
    # the objects they have activated, which is commit_write's subject
    # (64 a host), not this workload's.
    hosts = [f"s{i}" for i in range(32)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(readers)]
    writer = system.add_client("writer")
    homes: dict = {}
    uids = [_create(system, homes, [hosts[i % 32], hosts[(i + 1) % 32]],
                    [hosts[i % 32]]) for i in range(namespace)]
    _service_times(system, system.shard_hosts, 0.003)
    _service_times(system, hosts, 0.0005)
    # Popularity follows creation order on every seed (uids[0] is the
    # hottest): the seed draws the requests, not where hot entries live.
    edges = _zipf_edges(namespace, 1.1)

    def churn(uid: Uid) -> Callable:
        # A real naming write (drop and re-add one group-view member):
        # it bumps the entry's versions, which is what the hot-entry
        # detector and the pushed invalidations key off.
        spare = homes[uid][0][1]

        def body(txn: Txn) -> Generator[Any, Any, Any]:
            yield from txn._ctx.db.exclude(txn.action, [(uid, [spare])])
            yield from txn._ctx.db.include(txn.action, uid, spare)
        return body

    # Set-up, not load: enough writes per hot entry that the detector
    # has flipped them to push mode before the readers arrive.
    for _ in range(4):
        for uid in uids[:hot]:
            system.run_transaction(writer, churn(uid), timeout=30.0)

    def reader_pick(stream_id: int) -> Callable:
        rng = system.rng.substream(f"perf/zipf{stream_id}")

        def pick(_index: int) -> tuple:
            uid = uids[bisect.bisect_left(edges, rng.random())]
            return uid, invoke_ops(uid, ("get",)), 0
        return pick

    reads = _scaled(290, scale)
    for i, runtime in enumerate(runtimes):
        log.stream(i, runtime, reader_pick(i), count=reads, think=0.002,
                   max_attempts=5, read_only=True)

    def writer_pick(index: int) -> tuple:
        uid = uids[index % hot]
        return uid, churn(uid), 0

    # One naming write every 250 sim-ms for as long as the readers run.
    log.ticker(readers, writer, writer_pick, period=0.25, max_attempts=5)
    return Deployment(system, log, uids, runtimes[0], log.run_streams,
                      settle=1.0, homes=homes)


# -- bind_uncached ---------------------------------------------------------------


def bind_uncached(seed: int, scale: float) -> Deployment:
    clients, counters = 12, 32
    system, log = _boot(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=4, nameserver_replication=2,
        binding_scheme="independent",
        rpc_timeout=5.0, fixed_latency=0.002))
    hosts = [f"s{i}" for i in range(8)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    homes: dict = {}
    uids = [_create(system, homes, [hosts[i % 8]], [hosts[i % 8]])
            for i in range(counters)]
    _service_times(system, list(system.nodes), 0.006)

    def pick_for(stream_id: int) -> Callable:
        rng = system.rng.substream(f"perf/mix{stream_id}")

        def pick(_index: int) -> tuple:
            uid = rng.choice(uids)
            if rng.chance(0.5):
                return uid, invoke_ops(uid, ("add", 1)), 1
            return uid, invoke_ops(uid, ("get",)), 0
        return pick

    for i, runtime in enumerate(runtimes):
        log.stream(i, runtime, pick_for(i), count=_scaled(168, scale),
                   think=0.05, max_attempts=40)
    return Deployment(system, log, uids, runtimes[0], log.run_streams,
                      settle=1.0, homes=homes)


# -- churn_recover ---------------------------------------------------------------


def churn_recover(seed: int, scale: float) -> Deployment:
    clients, namespace, rate, window = 16, 512, 150.0, 20.0
    system, log = _boot(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=3, nameserver_replication=2,
        binding_scheme="standard",
        nameserver_lease=2.0, nameserver_cache_ledger=True,
        shard_antientropy_interval=0.5, dedicated_sync_nic=True,
        nameserver_peer_health=True, participant_retries=2,
        rpc_timeout=0.25, fixed_latency=0.002))
    hosts = [f"s{i}" for i in range(4)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    homes: dict = {}
    uids = [_create(system, homes, [hosts[i % 4]], [hosts[i % 4]])
            for i in range(namespace)]
    _service_times(system, system.shard_hosts, 0.002)
    _service_times(system, hosts, 0.001)

    # Seeded exponential gaps, rescaled to span the window exactly: the
    # offered rate is the same on every seed, the arrival pattern not.
    # A smaller scale thins the arrivals; the window and the fault
    # script under it stay whole.
    rng = system.rng.substream("perf/arrivals")
    gaps = [rng.exponential(1.0) for _ in range(_scaled(rate * window, scale))]
    stretch = window / sum(gaps)
    schedule, due = [], 0.0
    for gap in gaps:
        due += gap * stretch
        schedule.append(due)

    def pick(_index: int) -> tuple:
        uid = rng.choice(uids)
        return uid, invoke_ops(uid, ("add", 1)), 1

    dep = Deployment(system, log, uids, runtimes[0], load=lambda: None,
                     settle=8.0, homes=homes)
    plan = FaultPlan()
    victim, gray = system.shard_hosts[0], system.shard_hosts[1]
    dep.outage(plan, victim, 3.0, 7.0)
    plan.gray(9.0, 12.0, gray, factor=40.0, drop=0.1)
    system.install_fault_plan(plan)

    def rebalance() -> Generator[Any, Any, None]:
        yield 14.0
        dep.flips.append((yield system.plan_rebalance(add=1)))

    def load() -> None:
        grow = system.scheduler.spawn(rebalance(), name="perf-rebalance")
        log.run_open_loop(runtimes, schedule, pick, max_attempts=40,
                          deadline=10.0, backoff=0.05)
        # The fault script is part of the load: play it out in full.
        system.run(until=max(system.scheduler.now, window), max_events=None)
        system.run_until(grow, timeout=300.0)

    dep.load = load
    return dep


# -- paper_replicated ------------------------------------------------------------


def paper_replicated(seed: int, scale: float) -> Deployment:
    policies = (SingleCopyPassive, CoordinatorCohortReplication,
                ActiveReplication)
    system, log = _boot(SystemConfig(seed=seed))
    sv_hosts = [f"sv{i}" for i in range(4)]
    st_hosts = [f"st{i}" for i in range(4)]
    for host in sv_hosts:
        system.add_node(host, server=True)
    for host in st_hosts:
        system.add_node(host, store=True)
    # Clients 0-3 single-copy passive, 4-7 coordinator-cohort, 8-11
    # active; client i owns objects 4i..4i+3.
    runtimes = [system.add_client(f"c{i}", policy=policies[i // 4]())
                for i in range(12)]
    auditor = system.add_client("auditor")
    _service_times(system, ["namenode", *sv_hosts, *st_hosts], 0.001)
    crashed_server = sv_hosts[2]
    # Only single-copy-passive objects live on the server host that
    # crashes.  The audit caught the replicated policies losing an
    # update around a server crash (an active group never re-admits a
    # member that crashed and came back, so its copy goes stale; a
    # coordinator that dies between the store commit and the cohort
    # checkpoint leaves cohorts one version behind), and a benchmark
    # needs a workload on which no operation fails.
    steady_hosts = [h for h in sv_hosts if h != crashed_server]
    homes: dict = {}
    uids = []
    for i in range(48):
        pool = sv_hosts if i < 16 else steady_hosts
        uids.append(_create(
            system, homes,
            [pool[(i + r) % len(pool)] for r in range(3)],
            [st_hosts[(i + r) % 4] for r in range(3)]))

    def pick_for(stream_id: int) -> Callable:
        mine = uids[stream_id * 4:stream_id * 4 + 4]
        rng = system.rng.substream(f"perf/object{stream_id}")

        def pick(_index: int) -> tuple:
            uid = rng.choice(mine)
            return uid, invoke_ops(uid, ("get",), ("add", 1)), 1
        return pick

    for i, runtime in enumerate(runtimes):
        log.stream(i, runtime, pick_for(i), count=_scaled(170, scale),
                   think=0.05, max_attempts=40)
    dep = Deployment(system, log, uids, auditor, load=lambda: None,
                     settle=60.0, homes=homes)
    # Two stores crash under load and stay down (commits Exclude them);
    # one server host crashes and returns under load.  The stores come
    # back when the load is over, so ``cluster.reinclude_sim_s`` times
    # the refresh-and-Include protocol itself: under the closed loop
    # its write lock starves behind the clients' read locks for ~100
    # sim-s.  Both crashes land before the stores' include guards make
    # their first probe round (at 2 sim-s): a store that crashes while
    # its guard holds a probe's read lock leaks that lock at the name
    # node, and the entry can then never be re-Included.
    down = {st_hosts[1]: 1.2, st_hosts[3]: 1.6}
    plan = FaultPlan()
    for host, at in down.items():
        plan.crash_at(at, host)
    dep.outage(plan, crashed_server, 8.0, 11.0)
    system.install_fault_plan(plan)

    def load() -> None:
        log.run_streams()
        for host in down:
            dep.recover_now(host)

    dep.load = load
    return dep


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    why: str
    build: Callable[[int, float], Deployment]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("commit_write", "closed loop, 256 streams",
             "write-only closed loop on private counters: the commit path "
             "(cluster hosts, 2PC, net.batch, storage) works, naming is "
             "~98% cache hits", commit_write),
    Workload("lookup_read", "closed loop, 24 readers + 1 writer",
             "zipf reads over 1024 entries with a 512-entry cache under "
             "write churn: naming's client side and metering carry the "
             "run, the commit plane idles", lookup_read),
    Workload("bind_uncached", "closed loop, 12 clients",
             "50/50 get/add on 32 shared counters, no lease, no batching: "
             "use-list writes through ReplicaIO with real lock conflicts "
             "and retries", bind_uncached),
    Workload("churn_recover", "open loop, 150 txn/sim-s",
             "open loop across a shard outage, a gray host and a live "
             "3->4 reshard: resync, reshard, repair and failure timers "
             "dominate; requests due in an outage count", churn_recover),
    Workload("paper_replicated", "closed loop, 12 clients",
             "the paper's single-name-node deployment, three replication "
             "policies, three scripted outages: every later plane is off, "
             "so plane optimisations predict no change", paper_replicated),
)}
