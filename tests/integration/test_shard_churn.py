"""Long-haul stochastic churn over the shard ring.

The ROADMAP's standing experiment: drive
:class:`~repro.sim.failures.StochasticFaultInjector` against
``system.shard_hosts`` -- random crash/recover cycles with no script
-- while a closed loop of bindings runs, and (the hard part) while an
online reshard migrates arcs through the middle of the chaos.  The
whole machinery has to compose: replicated writes skip dark replicas,
reads fail over, resync gates recovered hosts, the anti-entropy sweep
patches residual staleness, and the migration epoch defers around outages
instead of flipping past them.

The invariants at the end of the haul:

- **no binding lost** -- every committed counter increment is in the
  final value (and nothing beyond them: no aborted effect survived);
- **the ring converges** -- every shard host serves again and every
  arc's replicas agree entry-for-entry;
- **the reshard completed** -- the ring grew by one host whose arcs
  are placed exactly as the new ring dictates.
"""

import pytest

from repro.naming.group_view_db import SERVICE_NAME
from repro.net.errors import StaleRingEpoch

from tests.conftest import add_work, assert_shard_replicas_agree, get_work
from tests.integration.test_sharded_nameserver import build

# Long-haul stochastic tests: excluded from the default tier-1 run
# (``-m "not slow"``); CI's full-suite job still runs them.
pytestmark = pytest.mark.slow


def assert_placement_matches_ring(system, uids, replication):
    for uid in uids:
        owners = set(system.shard_router.preference_list(uid, replication))
        for shard, db in system.db.shards.items():
            assert db.knows(str(uid)) == (shard in owners), \
                f"{uid} misplaced at {shard}: owners {sorted(owners)}"


def test_stochastic_shard_churn_with_a_concurrent_reshard():
    replication = 3
    system, (client,), uids = build(shards=4, objects=8,
                                    scheme="independent",
                                    nameserver_replication=replication,
                                    shard_antientropy_interval=2.0,
                                    enable_recovery_managers=False,
                                    rpc_timeout=0.3, seed=11)
    # Churn every original shard host: exponential crashes, sub-second
    # repairs, for the first 25 simulated seconds.  (The host added
    # mid-run is deliberately not a target: the injector snapshot
    # predates it, exactly like an operator pointing chaos tooling at
    # the old fleet.)  The rates are tuned so the ring stays mostly
    # available -- harsher churn just measures blackout arcs, not the
    # machinery under test.
    injector = system.stochastic_faults(system.shard_hosts, mttf=12.0,
                                        mttr=0.8, stop_after=25.0)

    committed = {str(uid): 0 for uid in uids}
    migration = None
    pre_flip_view = None
    while system.scheduler.now < 30.0:
        for uid in uids:
            result = system.run_transaction(client, add_work(uid, 1),
                                            timeout=30.0)
            if result.committed:
                committed[str(uid)] += 1
        if migration is None and system.scheduler.now >= 10.0:
            # Grow the ring in the middle of the churn window -- but
            # first capture the view a laggard client would still hold.
            pre_flip_view = system.shard_router.view()
            migration = system.add_shard_host()

    assert injector.crashes_injected > 0, "the haul must actually churn"
    assert migration is not None
    outcome = system.run_until(migration, timeout=600.0)
    assert outcome["flipped_at"] is not None
    assert len(system.shard_router.nodes) == 5

    # Let every recovery resync and anti-entropy sweep play out.
    system.run(until=system.scheduler.now + 60.0)
    for host, resyncer in system.shard_resyncers.items():
        assert resyncer.serving, f"{host} must be back in the serving path"

    total = sum(committed.values())
    assert total > 0, "the haul must commit real work through the churn"
    for uid in uids:
        result = system.run_transaction(client, get_work(uid), timeout=30.0)
        assert result.committed, f"final read of {uid} failed: {result.reason}"
        assert result.value == committed[str(uid)], \
            (f"{uid}: committed {committed[str(uid)]} increments but the "
             f"counter reads {result.value} -- a binding was "
             f"{'lost' if result.value < committed[str(uid)] else 'invented'}")

    assert_placement_matches_ring(system, uids, replication)
    for uid in uids:
        assert_shard_replicas_agree(system, uid, replication=replication)

    # The fencing satellite, asserted inside the churn harness: the
    # pre-flip view's token is dead at every serving shard -- a client
    # that somehow held it through the whole haul cannot write to (or
    # read from) anyone; it must refresh first.
    assert pre_flip_view is not None
    assert pre_flip_view.epoch != system.shard_router.fence_epoch
    caller = client.node.rpc
    for shard in system.shard_router.nodes:
        if not system.nodes[shard].rpc.has_service(SERVICE_NAME):
            continue
        call = caller.call(shard, SERVICE_NAME, "knows", str(uids[0]),
                           ring_epoch=pre_flip_view.epoch)
        with pytest.raises(StaleRingEpoch):
            system.scheduler.run_until_settled(call)


def test_stochastic_churn_without_resharding_converges():
    """The baseline haul: churn alone (no membership change) must also
    end with every replica converged -- the regression guard for the
    resync/anti-entropy stack under random faults."""
    replication = 2
    system, (client,), uids = build(shards=3, objects=6,
                                    scheme="independent",
                                    nameserver_replication=replication,
                                    shard_antientropy_interval=2.0,
                                    enable_recovery_managers=False,
                                    rpc_timeout=0.3, seed=23)
    injector = system.stochastic_faults(system.shard_hosts, mttf=5.0,
                                        mttr=1.0, stop_after=25.0)
    committed = {str(uid): 0 for uid in uids}
    while system.scheduler.now < 30.0:
        for uid in uids:
            result = system.run_transaction(client, add_work(uid, 1),
                                            timeout=30.0)
            if result.committed:
                committed[str(uid)] += 1

    assert injector.crashes_injected > 0
    system.run(until=system.scheduler.now + 60.0)
    for host, resyncer in system.shard_resyncers.items():
        assert resyncer.serving, f"{host} must be back in the serving path"
    for uid in uids:
        result = system.run_transaction(client, get_work(uid), timeout=30.0)
        assert result.committed and result.value == committed[str(uid)], \
            (uid, result.value, committed[str(uid)])
        assert_shard_replicas_agree(system, uid, replication=replication)
