"""The whole-system harness.

:class:`DistributedSystem` wires together everything the examples and
benchmarks need: a scheduler, a network, a name node hosting the
group-view database, store/server/client nodes, object creation with
initial ``Sv``/``St`` placement, fault injection, and metric
collection.  It is deterministic: the same :class:`SystemConfig` seed
produces the same run.

Typical use::

    system = DistributedSystem(SystemConfig(seed=7))
    system.registry.register(Account)
    system.add_node("alpha", server=True)
    system.add_node("beta", store=True)
    client = system.add_client("c1", policy=SingleCopyPassive())
    uid = system.create_object(Account(system.new_uid(), balance=100),
                               sv_hosts=["alpha"], st_hosts=["beta"])
    result = system.run_transaction(client, work)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.cluster.client import ClientRuntime, Txn, TxnResult
from repro.cluster.node import SYNC_NIC_SUFFIX, Node, SyncPlaneConfig
from repro.cluster.recovery import RecoveryManager, ShadowResolver
from repro.cluster.server_host import ServerHost
from repro.cluster.store_host import NameShardHost, StoreHost
from repro.core.objects import ObjectClassRegistry, PersistentObject
from repro.naming.binding import (
    BindingScheme,
    IndependentTopLevelBinding,
    NestedTopLevelBinding,
    StandardBinding,
)
from repro.naming.coherence import CoherenceHost
from repro.naming.entry_cache import EntryCache
from repro.naming.group_view_db import GroupViewDatabase
from repro.naming.nonatomic import NonAtomicNameServer
from repro.naming.object_server_db import ObjectServerDatabase
from repro.naming.peer_health import PeerHealthTracker
from repro.naming.reshard import ReshardManager, ShardAutoscaler
from repro.naming.shard_resync import ShardResyncManager
from repro.naming.shard_router import ShardRouter
from repro.naming.sharded_client import (
    READ_POLICIES,
    ShardedGroupViewDatabase,
    ShardedGroupViewDbClient,
)
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.replication.policy import ReplicationPolicy
from repro.replication.single_copy_passive import SingleCopyPassive
from repro.sim.failures import FaultPlan, StochasticFaultInjector
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Scheduler
from repro.storage.uid import Uid, UidFactory

NAME_NODE = "namenode"

SCHEME_FACTORIES: dict[str, Callable[..., BindingScheme]] = {
    "standard": StandardBinding,
    "independent": IndependentTopLevelBinding,
    "nested_top_level": NestedTopLevelBinding,
}


@dataclass
class SystemConfig:
    """Knobs for one simulated system."""

    seed: int = 42
    fixed_latency: float = 0.01              # every message's one-way delay
    rpc_timeout: float | None = None         # None -> derived from latency
    service_time: float = 0.0
    reliable_multicast: bool = True
    use_exclude_write_lock: bool = True
    binding_scheme: str = "standard"
    nonatomic_name_server: bool = False      # section-5 variant (E6)
    nameserver_shards: int = 1               # >1 -> consistent-hash ring
    nameserver_replication: int = 1          # >1 -> replicate each ring arc
    nameserver_read_policy: str = "primary"  # or "spread": rotate replicas
    # The gray-failure detection plane: give every sharded client a
    # PeerHealthTracker fed by its own read RPCs (EWMA latency +
    # consecutive-timeout streaks).  Gray replicas are demoted to the
    # back of the failover read order until a probation trial redeems
    # them; writes still fan out to every replica.  Only meaningful
    # with nameserver_replication > 1 (reads need somewhere to go).
    nameserver_peer_health: bool = False
    # Bounded re-sends of a name node's 2PC outcome message (it is
    # never sent ``prepare``): a gray shard's dropped ``commit`` gets
    # this many more chances (with exponential seeded-jitter backoff)
    # before the action's lock release there is filed as a heuristic.
    participant_retries: int = 0
    # The leased read plane: a per-client LRU of entry snapshots, each
    # served RPC- and lock-free while its lease TTL holds and the ring's
    # fence epoch has not moved.  ``None`` disables the cache (every
    # ``GetServer`` stays an authoritative locking read).  Setting a
    # lease boots the sharded name service even at one shard -- the
    # plane lives in the sharded client.
    nameserver_lease: float | None = None
    nameserver_cache_ledger: bool = False    # record every cache-served read
    # The write-hot coherence plane: each owning shard host tracks the
    # live lessees of its entries and *pushes* versioned invalidations
    # over the sequencer-ordered multicast (riding the sync NIC when
    # the cluster runs two planes); a windowed write-rate detector
    # flips entries between pull mode (lease + TTL) and push mode
    # (lessee registry + multicast), and clients self-sort off the
    # mode carried in every versioned read reply.  Requires the leased
    # read plane and ``reliable_multicast``.
    nameserver_push_invalidation: bool = False
    nameserver_hot_write_rate: float = 1.0   # writes/sec: pull -> push flip
    # Lease renewal is push re-registration: an expired push-mode
    # entry re-registers with its owner and, if its versions still
    # match, is re-stored under a fresh registration TTL instead of
    # being refetched.  Requires the coherence plane; every deployment
    # that sets it sets it equal to ``nameserver_push_invalidation``,
    # so the field is slated to fold into that one.
    nameserver_renewal: bool = False
    nameserver_registration_ttl: float | None = None  # None -> 8x lease
    shard_antientropy_interval: float | None = 10.0  # None disables the sweep
    # The two-plane network: give every shard host a second NIC
    # (``<name>.sync``) and route all replica-maintenance traffic
    # (resync, anti-entropy, migration copies) over it so
    # sync storms never queue behind client requests.  A plane is a
    # second NIC name and a second RPC agent with its own service
    # queue, on the network's one latency model.
    dedicated_sync_nic: bool = False
    sync_service_time: float | None = None   # None -> primary service_time
    # The raw-speed commit plane.  ``commit_batching`` gives every node
    # a CommitBatcher: 2PC phase messages, shadow writes and activation
    # state loads issued within ``commit_batch_window`` of each other to
    # the same target coalesce into one ``_many`` RPC (one service-time
    # charge at the target instead of one per action).
    # ``log_force_interval > 0`` arms group commit on the store hosts:
    # commit_shadow ACKs only after a shared simulated log force,
    # co-arriving commits amortise one write.  ``rpc_pipelining`` lets
    # back-to-back RPCs to one target share a single transmission frame.
    commit_batching: bool = False
    commit_batch_window: float = 0.0
    log_force_interval: float = 0.0
    rpc_pipelining: bool = False
    # The name nodes' janitors also purge the use counts of clients that
    # do not answer their probe (the paper's section 4.1.3 protocol).
    enable_cleaner: bool = False
    enable_recovery_managers: bool = True
    enable_shadow_resolvers: bool = False


class DistributedSystem:
    """A complete simulated deployment of the paper's system."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.scheduler = Scheduler()
        self.rng = SeededRng(self.config.seed)
        self.metrics = MetricsRegistry()
        self.registry = ObjectClassRegistry()
        self.type_names: dict[Uid, str] = {}
        self._uid_factory = UidFactory("sys")

        self.network = Network(self.scheduler,
                               FixedLatency(self.config.fixed_latency),
                               rng=self.rng)

        self.nodes: dict[str, Node] = {}
        self.clients: dict[str, ClientRuntime] = {}
        self.recovery_managers: dict[str, RecoveryManager] = {}
        self.shadow_resolvers: dict[str, ShadowResolver] = {}

        # The name service (assumed always available, paper section 3.1):
        # a consistent-hash ring of shard hosts -- for the paper's
        # deployment a ring of one, the single name node.
        self.shard_router: ShardRouter
        self.db: ShardedGroupViewDatabase
        self.reshard: ReshardManager
        # Every leased entry cache handed out by _make_db_client, keyed
        # by owning node -- the churn harnesses audit their ledgers.
        self.entry_caches: dict[str, EntryCache] = {}
        # Every per-client PeerHealthTracker, keyed like entry_caches --
        # gray-failure harnesses read demotion counts off these.
        self.peer_health: dict[str, PeerHealthTracker] = {}
        self.shard_resyncers: dict[str, ShardResyncManager] = {}
        self.autoscaler: ShardAutoscaler | None = None
        self.drained_shard_hosts: list[str] = []
        self._shard_name_hosts: dict[str, Any] = {}
        self.coherence_hosts: dict[str, CoherenceHost] = {}
        shard_count = self.config.nameserver_shards
        replication = self.config.nameserver_replication
        if shard_count < 1:
            raise ValueError(f"nameserver_shards must be >= 1: {shard_count}")
        if replication < 1:
            raise ValueError(
                f"nameserver_replication must be >= 1: {replication}")
        if replication > shard_count:
            raise ValueError(
                f"nameserver_replication ({replication}) cannot exceed "
                f"nameserver_shards ({shard_count})")
        if self.config.nameserver_read_policy not in READ_POLICIES:
            raise ValueError(
                f"unknown nameserver_read_policy: "
                f"{self.config.nameserver_read_policy!r} "
                f"(expected one of {READ_POLICIES})")
        lease = self.config.nameserver_lease
        if lease is not None and lease <= 0:
            raise ValueError(f"nameserver_lease must be > 0: {lease}")
        if (self.config.nameserver_renewal
                and not self.config.nameserver_push_invalidation):
            raise ValueError("nameserver_renewal re-registers push-mode "
                             "entries (set nameserver_push_invalidation)")
        if self.config.nameserver_push_invalidation:
            if lease is None:
                raise ValueError(
                    "nameserver_push_invalidation needs the leased read "
                    "plane (set nameserver_lease)")
            if not self.config.reliable_multicast:
                raise ValueError(
                    "nameserver_push_invalidation needs reliable_multicast "
                    "(invalidations ride the ordered multicast)")
        if self.config.nonatomic_name_server and (shard_count > 1
                                                  or lease is not None):
            raise ValueError("the non-atomic name server variant cannot be "
                             "sharded and has no leased read plane")
        self._boot_sharded_name_service(shard_count)

    def _boot_sharded_name_service(self, shard_count: int) -> None:
        """Partition the database across ``shard_count`` store hosts.

        One shard is the paper's deployment: the whole database on one
        node, which keeps the name ``namenode``.  Each shard host runs
        its own :class:`GroupViewDatabase` (own lock manager, own undo
        log) with its own janitor;
        entry placement is the consistent-hash ring shared by every
        client through :class:`ShardedGroupViewDbClient`.  With
        ``nameserver_replication > 1`` every entry additionally lives
        on its arc's replica successors, the shard hosts become
        legitimate crash/recovery targets for :class:`FaultPlan` and
        :class:`StochasticFaultInjector`, and each host gets a
        :class:`ShardResyncManager` that catches it up from its peers
        before it serves again after a crash.
        """
        names = ([NAME_NODE] if shard_count == 1
                 else [f"{NAME_NODE}{i}" for i in range(shard_count)])
        replication = self.config.nameserver_replication
        self.shard_router = ShardRouter(names)
        shard_dbs = {name: self._boot_shard_host(name) for name in names}
        self.name_node = self.nodes[names[0]]
        self.db = ShardedGroupViewDatabase(self.shard_router, shard_dbs,
                                           replication=replication)
        # The coordinator of online membership changes.  No settle
        # interval: the epoch fence rejects (at dispatch time) any write
        # still in flight from a pre-transition ring view, so the copy
        # passes may trust the sources' version probes immediately.
        self.reshard = ReshardManager(
            self.name_node, self.shard_router, replication,
            handover_coherence=self.config.nameserver_push_invalidation,
            metrics=self.metrics)

    def _registration_ttl(self) -> float:
        """How long an owner remembers a lessee without a re-register.

        Defaults to eight client leases: long enough that a steadily
        renewing reader never falls out of the registry between
        renewals, short enough that a departed client stops costing
        push fan-out quickly.
        """
        ttl = self.config.nameserver_registration_ttl
        if ttl is not None:
            return ttl
        return (self.config.nameserver_lease or 1.0) * 8.0

    def _boot_shard_host(self, name: str) -> GroupViewDatabase:
        """Boot one shard host: node, database, services, daemons.

        Used both at initial boot and by :meth:`add_shard_host` when
        online resharding grows the ring -- a host booted here serves
        the naming RPC surface immediately but owns no arcs until the
        router (or a migration epoch flip) says so.
        """
        replication = self.config.nameserver_replication
        node = self._make_node(name, has_store=True, sync_plane=True)
        metrics = self.metrics.scoped(f"shard.{name}.")
        server_db = None
        if self.config.nonatomic_name_server:
            # The section-5 variant (E6): non-atomic server data, atomic St.
            server_db = NonAtomicNameServer(metrics=metrics)
        db = GroupViewDatabase(
            use_exclude_write_lock=self.config.use_exclude_write_lock,
            metrics=metrics, partition_of=self.shard_router.partition_of,
            server_db=server_db)
        # The client-facing service is epoch-fenced against the shared
        # router (re-armed by the boot hook on every recovery); the
        # sync plane stays open for resync and migration traffic.
        router = self.shard_router
        self._shard_name_hosts[name] = NameShardHost.install_on(
            node, db, fence=lambda: router.fence_epoch,
            purge=self.config.enable_cleaner and server_db is None)
        StoreHost.install_on(
            node, log_force_interval=self.config.log_force_interval)
        if self.config.nameserver_push_invalidation:
            # The coherence plane's server half: lessee registry, hot
            # detector, and the multicast push path for this host's
            # entries.  Installed after NameShardHost so a recovering
            # host rebuilds its RPC surface before rejoining its group.
            coherence = CoherenceHost(
                node, db, router,
                registration_ttl=self._registration_ttl(),
                hot_write_rate=self.config.nameserver_hot_write_rate,
                metrics=metrics)
            coherence.install()
            self.coherence_hosts[name] = coherence
        if replication > 1:
            # Installed after NameShardHost so its boot hook runs
            # second on recovery and can gate the service back out.
            self.shard_resyncers[name] = ShardResyncManager(
                node, db, self.shard_router, replication,
                sweep_interval=self.config.shard_antientropy_interval,
                fence=lambda: router.fence_epoch, metrics=metrics)
        else:
            # No peers to resync from: the restart rule (recovery only).
            node.add_boot_hook(lambda _node: db.restart(), run_now=False)
        return db

    def _make_db_client(self, node: Node) -> ShardedGroupViewDbClient:
        """The naming client a client-side component on ``node`` uses.

        One client for every deployment, routing by ``shard_router``.
        Gray-failure detection, the leased cache and its coherence
        plane exist only where the config's ring asks for them.
        """
        replication = self.config.nameserver_replication
        cache = None
        if self.config.nameserver_lease is not None:
            # Per-client leased cache: lease expiry runs on the
            # simulation clock, epoch invalidation on the shared
            # router's fence -- any reshard or failover that
            # changes routing kills every pre-change entry.
            router = self.shard_router
            cache = EntryCache(
                self.config.nameserver_lease,
                fence=lambda: router.fence_epoch,
                clock=lambda: self.scheduler.now,
                metrics=self.metrics,
                keep_ledger=self.config.nameserver_cache_ledger,
                renewal=self.config.nameserver_renewal)
            # A node can host several db clients (shadow resolver +
            # recovery manager): suffix the key rather than shadow
            # an earlier cache out of the audit registry.
            key = node.name
            while key in self.entry_caches:
                key += "+"
            self.entry_caches[key] = cache
        health = None
        if self.config.nameserver_peer_health and replication > 1:
            # Per-client gray detector on the simulation clock; the
            # registry key mirrors entry_caches (a node can host
            # several db clients).
            health = PeerHealthTracker(clock=lambda: self.scheduler.now)
            hkey = node.name
            while hkey in self.peer_health:
                hkey += "+"
            self.peer_health[hkey] = health
        retry_rng = None
        if self.config.participant_retries > 0:
            # Jitter must come from a seeded substream (the
            # determinism invariant); one stream per client node.
            retry_rng = self.rng.substream(f"2pc-retry/{node.name}")
        return ShardedGroupViewDbClient(
            node.rpc, self.shard_router, replication=replication,
            read_policy=self.config.nameserver_read_policy,
            cache=cache,
            sync_suffix=self.sync_suffix,
            coherence_node=(node if self.config.nameserver_push_invalidation
                            and cache is not None else None),
            batcher=node.commit_batcher,
            health=health,
            participant_retries=self.config.participant_retries,
            retry_rng=retry_rng,
            metrics=self.metrics)

    @property
    def shard_hosts(self) -> list[str]:
        """The shard-host node names -- valid fault-injection targets."""
        return list(self.shard_router.nodes)

    # -- online resharding --------------------------------------------------

    def add_shard_host(self, name: str | None = None,
                       weight: float = 1.0) -> Process:
        """Grow the shard ring by one host, live, under traffic.

        Boots the host (node, database, services, daemons) immediately
        -- it serves the naming RPC surface but owns nothing -- then
        runs the ReshardManager's migration epoch: dual-ownership
        copy of the moving partitions, atomic epoch flip, garbage
        collection.  ``weight`` sets the host's share of the ring
        (vnodes, hence partitions) relative to a weight-1.0 host.
        Returns the migration :class:`~repro.sim.process.Process`; the
        system keeps serving throughout, so callers only wait on it to
        learn when the new capacity is fully owned.
        """
        if name is None:
            [name] = self._new_shard_names(1)
        return self.plan_rebalance(add=[name], weights={name: weight})

    def drain_shard_host(self, name: str) -> Process:
        """Shrink the shard ring by one host, live, under traffic.

        Runs the ReshardManager's migration epoch (the drained host's
        arcs are copied to their new owners before the flip, then
        garbage-collected off it) and, once complete, retires the
        host's naming service, resyncer, and janitor -- the node itself
        stays up as an ordinary store host.  Returns the migration
        process.
        """
        return self.plan_rebalance(remove=[name])

    def _new_shard_names(self, count: int) -> list[str]:
        """Allocate ``count`` unused auto-generated shard-host names."""
        names = []
        index = 0
        for _ in range(count):
            while (f"{NAME_NODE}{index}" in self.nodes
                   or f"{NAME_NODE}{index}" in self.drained_shard_hosts):
                index += 1
            names.append(f"{NAME_NODE}{index}")
            index += 1
        return names

    def plan_rebalance(self, add: int | list[str] = 0,
                       remove: list[str] | None = None,
                       weights: dict[str, float] | None = None) -> Process:
        """Move several shard hosts in *one* live migration epoch.

        ``add`` is either a count (hosts are auto-named like
        :meth:`add_shard_host`) or explicit names; ``remove`` names
        current shard hosts to drain; ``weights`` assigns boot weights
        for added hosts and weight *changes* for live hosts (a
        weight-only plan is valid -- nothing joins or leaves, only
        partition ownership shifts).  Every added host is booted
        immediately (serving but owning nothing), then the whole plan
        is staged as a single ring transition: one dual-ownership
        window, one copy pipeline over the staged partition diff, one
        atomic epoch flip, one GC round -- a 2->4 scale-out pays one
        migration, not two.  Removed hosts are retired (naming service,
        resyncer, janitor) once the epoch completes.  Returns the
        migration :class:`~repro.sim.process.Process`; the system keeps
        serving throughout.
        """
        if self.config.nonatomic_name_server:
            raise ValueError("the non-atomic name server variant cannot be "
                             "sharded")
        if self.reshard.active:
            raise ValueError("a ring membership change is already migrating")
        removed = list(remove or [])
        for name in removed:
            if name not in self.shard_router.nodes:
                raise ValueError(f"not a shard host: {name}")
        if isinstance(add, int):
            added = self._new_shard_names(add)
        else:
            added = list(add)
            for name in added:
                if name in self.nodes:
                    raise ValueError(f"node name already in use: {name}")
        # Validate the whole plan BEFORE booting anything: a plan the
        # manager would reject must not leave orphan shard hosts booted
        # and serving but never on the ring.
        added, removed, reweighted = self.reshard.validate_plan(
            added, removed, weights)
        for name in added:
            self.db.add_shard(name, self._boot_shard_host(name))

        # Claims the migration slot synchronously (see ReshardManager).
        migration = self.reshard.plan_rebalance(add=added, remove=removed,
                                                weights=weights)

        def drain() -> Generator[Any, Any, dict[str, Any]]:
            outcome = yield from migration
            for name in removed:
                self._retire_shard_host(name)
            return outcome

        label = f"+{len(added)}/-{len(removed)}"
        if reweighted:
            label += f"/~{len(reweighted)}"
        return self.scheduler.spawn(drain(), name=f"reshard-plan:{label}")

    def _retire_shard_host(self, name: str) -> None:
        """Take a fully-drained host out of every naming-service path."""
        coherence = self.coherence_hosts.pop(name, None)
        if coherence is not None:
            coherence.retire()
        shard_host = self._shard_name_hosts.pop(name, None)
        if shard_host is not None:
            shard_host.retire()
        resyncer = self.shard_resyncers.pop(name, None)
        if resyncer is not None:
            resyncer.retire()
        self.db.remove_shard(name)
        self.drained_shard_hosts.append(name)

    def enable_autoscaler(self, ops_per_shard: float = 200.0,
                          interval: float = 5.0,
                          max_shards: int = 8,
                          low_ops_per_shard: float | None = None,
                          min_shards: int | None = None,
                          down_after: int = 3,
                          p95_up: float | None = None,
                          p95_down: float | None = None) -> ShardAutoscaler:
        """Start the load-triggered autoscaler over the shard ring.

        Samples the per-shard naming-operation counters every
        ``interval`` and grows the ring by one host whenever the
        per-shard op rate exceeds ``ops_per_shard`` (each migration is
        its own cooldown).  Passing ``low_ops_per_shard`` (at most half
        the high watermark -- hysteresis) arms the scale-*down* policy:
        after ``down_after`` consecutive quiet samples the least-loaded
        shard host is drained, never below ``min_shards`` (default: the
        replication factor, the floor a drain is valid at anyway).

        Passing ``p95_up`` arms the latency trigger: each tick also
        computes the windowed p95 of ``naming.get_server_latency``
        observations (the client-side GetServer histogram) and scales
        up when it exceeds the watermark -- the signal that catches a
        *gray* shard host, whose op counters look normal while its
        replies crawl.  ``p95_down`` (at most ``p95_up / 2``) blocks
        scale-down while the window's p95 is still above it: a quiet
        but slow ring must not shrink.
        """
        if self.autoscaler is not None:
            raise ValueError("the autoscaler is already running")
        reshard = self.reshard
        if min_shards is None:
            min_shards = max(2, self.config.nameserver_replication)
        latency_sample = None
        if p95_up is not None:
            histogram = self.metrics.histogram("naming.get_server_latency")
            latency_sample = lambda: histogram.values
        self.autoscaler = ShardAutoscaler(
            self.scheduler, sample=self._shard_op_counts,
            scale_up=self.add_shard_host, interval=interval,
            ops_per_shard=ops_per_shard, max_shards=max_shards,
            scale_down=(self.drain_shard_host
                        if low_ops_per_shard is not None else None),
            low_ops_per_shard=low_ops_per_shard,
            min_shards=min_shards, down_after=down_after,
            busy=lambda: reshard.active,
            latency_sample=latency_sample,
            p95_up=p95_up, p95_down=p95_down)
        self.autoscaler.start()
        return self.autoscaler

    def _shard_op_counts(self) -> dict[str, float]:
        """Cumulative naming-op count per current shard host."""
        ops = ("server_db.get_server", "server_db.insert",
               "server_db.remove", "server_db.increment",
               "server_db.decrement", "state_db.get_view",
               "state_db.exclude", "state_db.include")
        return {name: float(sum(
            self.metrics.counter_value(f"shard.{name}.{op}") for op in ops))
            for name in self.shard_router.nodes}

    # -- topology building ---------------------------------------------------

    def _make_node(self, name: str, has_store: bool,
                   sync_plane: bool = False) -> Node:
        sync_config = None
        if sync_plane and self.config.dedicated_sync_nic:
            sync_config = SyncPlaneConfig(
                service_time=self.config.sync_service_time)
        node = Node(self.scheduler, self.network, name, has_store=has_store,
                    reliable_multicast=self.config.reliable_multicast,
                    rpc_timeout=self.config.rpc_timeout,
                    service_time=self.config.service_time,
                    sync_plane=sync_config,
                    metrics=self.metrics,
                    commit_batch_window=(self.config.commit_batch_window
                                         if self.config.commit_batching
                                         else None),
                    rpc_pipelining=self.config.rpc_pipelining)
        self.nodes[name] = node
        return node

    @property
    def sync_suffix(self) -> str:
        """NIC suffix client-side sync engines use to reach shard hosts.

        Non-empty only when the cluster runs two planes: coherence
        registrations originated *off* the shard hosts must still land
        on the shard hosts' replication NICs.
        """
        return SYNC_NIC_SUFFIX if self.config.dedicated_sync_nic else ""

    def add_node(self, name: str, store: bool = False,
                 server: bool = False) -> Node:
        """Add a workstation; ``store``/``server`` select its roles."""
        node = self._make_node(name, has_store=store)
        if store:
            StoreHost.install_on(
                node, log_force_interval=self.config.log_force_interval)
            if self.config.enable_shadow_resolvers:
                self.shadow_resolvers[name] = ShadowResolver(
                    node, self._make_db_client(node))
        if server:
            ServerHost.install_on(node, self.registry)
        if self.config.enable_recovery_managers and (store or server):
            self.recovery_managers[name] = RecoveryManager(
                node, self._make_db_client(node), serves=[])
        return node

    def add_client(self, name: str, policy: ReplicationPolicy | None = None,
                   scheme: str | None = None) -> ClientRuntime:
        """Add a client node with its transaction runtime."""
        node = self._make_node(name, has_store=False)
        scheme_name = scheme or self.config.binding_scheme
        factory = SCHEME_FACTORIES[scheme_name]
        db_client = self._make_db_client(node)
        binding_scheme = factory(db_client, name, metrics=self.metrics,
                                 rng=self.rng.substream(f"unbind/{name}"))
        runtime = ClientRuntime(
            node, db_client, binding_scheme,
            policy or SingleCopyPassive(), self.registry,
            self.type_names)
        self.clients[name] = runtime
        return runtime

    def new_uid(self) -> Uid:
        return self._uid_factory.allocate()

    # -- object creation ----------------------------------------------------------

    def create_object(self, obj: PersistentObject, sv_hosts: list[str],
                      st_hosts: list[str]) -> Uid:
        """Install a persistent object: states in stores, entry in the db.

        Runs synchronously before the simulation starts (bootstrap);
        stores receive version-1 committed states directly.
        """
        for host in st_hosts:
            node = self.nodes[host]
            if node.object_store is None:
                raise ValueError(f"st host {host} has no object store")
            node.object_store.install(obj.uid, obj.serialise(), version=1)
        boot_path = (0,)
        self.db.define_object(boot_path, str(obj.uid),
                              list(sv_hosts), list(st_hosts))
        self.db.commit(boot_path)
        self.type_names[obj.uid] = type(obj).TYPE_NAME
        # Recovery managers on the Sv hosts must know they serve this object.
        for host in sv_hosts:
            manager = self.recovery_managers.get(host)
            if manager is not None:
                manager.serves.append(obj.uid)
        return obj.uid

    # -- fault injection ---------------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> None:
        plan.install(self.scheduler, dict(self.nodes),
                     network=self.network, caches=self.entry_caches)

    def stochastic_faults(self, targets: list[str], mttf: float,
                          mttr: float | None = None,
                          stop_after: float | None = None,
                          gray_probability: float = 0.0,
                          degrade_factor: float = 10.0,
                          degrade_drop: float = 0.0) -> StochasticFaultInjector:
        injector = StochasticFaultInjector(
            self.scheduler, self.rng, mttf, mttr, stop_after,
            network=self.network if gray_probability > 0.0 else None,
            gray_probability=gray_probability,
            degrade_factor=degrade_factor, degrade_drop=degrade_drop)
        injector.attach_all([self.nodes[t] for t in targets])
        return injector

    # -- running ----------------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = 2_000_000) -> float:
        return self.scheduler.run(until=until, max_events=max_events)

    def run_transaction(self, client: ClientRuntime,
                        work: Callable[[Txn], Generator[Any, Any, Any]],
                        read_only: bool = False,
                        timeout: float = 120.0) -> TxnResult:
        """Run one transaction to completion and return its result."""
        process = client.transaction(work, read_only=read_only)
        return self.run_until(process, timeout=timeout)

    def run_until(self, process: Process, timeout: float = 120.0) -> Any:
        return self.scheduler.run_until_settled(
            process, until=self.scheduler.now + timeout)

    # -- inspection ---------------------------------------------------------------------------

    def db_sv(self, uid: Uid) -> list[str]:
        """Current Sv set (bypassing locks; for assertions and reports)."""
        snapshot = self.db.get_server_with_uses((0,), str(uid))
        self._release_probe_locks()
        return list(snapshot.hosts)

    def db_st(self, uid: Uid) -> list[str]:
        """Current St set (bypassing locks; for assertions and reports)."""
        view = self.db.get_view((0,), str(uid))
        self._release_probe_locks()
        return list(view)

    def _release_probe_locks(self) -> None:
        from repro.actions.action import ActionId
        probe = ActionId((0,))
        for db in self.db.shards.values():
            # The section-5 variant's non-atomic half has no lock table.
            if isinstance(db.server_db, ObjectServerDatabase):
                db.server_db.locks.release_all(probe)
            db.state_db.locks.release_all(probe)

    def store_versions(self, uid: Uid) -> dict[str, int]:
        """Committed version of ``uid`` at every up store node."""
        versions: dict[str, int] = {}
        for name, node in self.nodes.items():
            if node.object_store is None or node.crashed:
                continue
            version = node.object_store.version_of(uid)
            if version:
                versions[name] = version
        return versions
