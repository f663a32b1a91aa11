"""The two-plane network: a dedicated replication NIC per shard host.

With ``dedicated_sync_nic`` every shard host attaches a second
interface (``<name>.sync``) carrying all replica-maintenance traffic
-- resync, anti-entropy, migration copies, read repair -- while client
requests stay on the primary NIC.  These tests pin the topology
contract: where the sync service registers, how the second NIC follows
host liveness, what a gated recovering host still answers, and that
the per-plane traffic meters actually separate the two kinds of load.
"""

import pytest

from repro.cluster.node import SYNC_NIC_SUFFIX, Node, SyncPlaneConfig
from repro.naming.group_view_db import SERVICE_NAME, SYNC_SERVICE_NAME
from repro.net import FixedLatency, Network
from repro.sim import Scheduler

from tests.conftest import add_work, get_work
from tests.integration.test_sharded_nameserver import build


def build_two_plane(**config_kwargs):
    config_kwargs.setdefault("dedicated_sync_nic", True)
    config_kwargs.setdefault("nameserver_replication", 2)
    return build(shards=3, objects=6, **config_kwargs)


def test_shard_hosts_get_a_second_nic_and_split_services():
    system, _, _ = build_two_plane()
    for name in system.shard_hosts:
        node = system.nodes[name]
        assert node.sync_nic is not None
        assert node.sync_nic.name == name + SYNC_NIC_SUFFIX
        assert node.sync_rpc is not node.rpc
        assert node.sync_suffix == SYNC_NIC_SUFFIX
        # The client-facing service answers on the primary NIC only;
        # the sync side door on the replication NIC only.
        assert node.rpc.has_service(SERVICE_NAME)
        assert not node.rpc.has_service(SYNC_SERVICE_NAME)
        assert node.sync_rpc.has_service(SYNC_SERVICE_NAME)
        assert not node.sync_rpc.has_service(SERVICE_NAME)
    # Client nodes stay single-homed.
    assert system.nodes["c0"].sync_nic is None
    assert system.nodes["c0"].sync_rpc is system.nodes["c0"].rpc
    assert system.sync_suffix == SYNC_NIC_SUFFIX


def test_shared_nic_fallback_aliases_the_primary_plane():
    system, _, _ = build_two_plane(dedicated_sync_nic=False)
    for name in system.shard_hosts:
        node = system.nodes[name]
        assert node.sync_nic is None
        assert node.sync_rpc is node.rpc
        assert node.sync_suffix == ""
        assert node.rpc.has_service(SYNC_SERVICE_NAME)
    assert system.sync_suffix == ""


def test_sync_nic_follows_host_liveness():
    system, _, _ = build_two_plane()
    victim = system.shard_hosts[0]
    node = system.nodes[victim]
    assert node.nic.up and node.sync_nic.up
    node.crash()
    assert not node.nic.up and not node.sync_nic.up
    node.recover()
    assert node.nic.up and node.sync_nic.up


def test_gated_recovering_host_serves_the_sync_side_door_only():
    system, (client,), uids = build_two_plane(sv=("a1", "a2"),
                                              st=("b1", "b2"))
    victim = system.shard_router.shard_for(uids[0])
    system.nodes[victim].crash()
    # Crash a store host too: the next commits Exclude it from every
    # touched entry's St on the surviving replicas -- a durable change
    # the downed shard host misses and must copy back on resync.
    system.nodes["b2"].crash()
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    system.nodes[victim].recover()
    node = system.nodes[victim]
    # Recovery gating pulls the *client* service until resync converges
    # -- but the sync side door answers immediately, on its own NIC, so
    # peers can probe and repair the recovering host the whole time.
    assert not node.rpc.has_service(SERVICE_NAME)
    assert node.sync_rpc.has_service(SYNC_SERVICE_NAME)
    resyncer = system.shard_resyncers[victim]
    assert not resyncer.serving
    system.run(until=system.scheduler.now + 30.0)
    assert resyncer.serving
    assert node.rpc.has_service(SERVICE_NAME)
    assert resyncer.entries_refreshed > 0
    for uid in uids:
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1


def test_traffic_meters_split_client_and_sync_planes():
    system, (client,), uids = build_two_plane()
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    snapshot = system.metrics.snapshot()
    client_rpcs = sum(
        snapshot.get(f"traffic.{name}.client.rpcs_in", 0)
        for name in system.shard_hosts)
    sync_rpcs = sum(
        snapshot.get(f"traffic.{name}.sync.rpcs_in", 0)
        for name in system.shard_hosts)
    assert client_rpcs > 0
    assert sync_rpcs == 0  # no maintenance ran yet: planes separate

    victim = system.shard_router.shard_for(uids[0])
    system.nodes[victim].crash()
    assert system.run_transaction(client, add_work(uids[0], 1)).committed
    system.nodes[victim].recover()
    system.run(until=system.scheduler.now + 30.0)
    snapshot = system.metrics.snapshot()
    assert snapshot.get(f"traffic.{victim}.sync.rpcs_out", 0) > 0, \
        "resync probes and copies must be metered on the sync plane"
    assert snapshot.get(f"traffic.{victim}.sync.bytes_out", 0) > 0


def test_a_plane_is_the_one_latency_model_and_its_own_service_queue():
    """What ``sync_plane`` relies on: a message to a host's ``.sync``
    NIC takes the network's latency like any other, and queues only
    behind other *sync* requests -- never behind the client plane."""
    class Echo:
        def echo(self, value):
            return value

    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    host = Node(s, net, "h", service_time=1.0,
                sync_plane=SyncPlaneConfig(service_time=0.1))
    caller = Node(s, net, "c")
    host.rpc.register("echo", Echo())
    host.sync_rpc.register("echo", Echo())

    done = {}
    calls = [("client", "h"), ("sync-1", "h.sync"), ("sync-2", "h.sync")]
    for label, target in calls:
        future = caller.rpc.call(target, "echo", "echo", label, timeout=10.0)
        future.add_callback(
            lambda f, label=label: done.setdefault(label, s.now))
    s.run(until=5.0)

    # One wire delay each way plus the serving agent's queue: the sync
    # calls pay 0.1 s apiece in their own queue while the client plane
    # is still busy with its 1 s request.
    assert done == {"sync-1": pytest.approx(0.12),
                    "sync-2": pytest.approx(0.22),
                    "client": pytest.approx(1.02)}


def test_weight_only_rebalance_moves_entries_and_loses_nothing():
    system, (client,), uids = build(shards=3, objects=12,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    process = system.plan_rebalance(weights={"namenode1": 3.0})
    outcome = system.run_until(process, timeout=120.0)

    assert system.shard_router.weight_of("namenode1") == 3.0
    assert outcome["reweighted"] == {"namenode1": 3.0}
    assert outcome["partitions_moved"] > 0
    assert outcome["partitions_moved"] <= outcome["movement_bound"]
    assert system.shard_router.transition is None
    for uid in uids:  # every binding survived the weight shuffle
        owners = set(system.shard_router.preference_list(uid, 2))
        for shard, db in system.db.shards.items():
            assert db.knows(str(uid)) == (shard in owners)
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1


def test_add_shard_host_with_weight_takes_a_larger_share():
    system, (client,), uids = build(shards=2, objects=8,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    process = system.add_shard_host(weight=2.0)
    system.run_until(process, timeout=120.0)

    assert system.shard_router.weight_of("namenode2") == 2.0
    spread = system.shard_router.partition_spread()
    # Weight 2.0 against two weight-1.0 peers: the newcomer should own
    # the largest share (~half the partitions).
    assert spread["namenode2"] == max(spread.values())
    for uid in uids:
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1
