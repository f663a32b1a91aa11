"""The write-hot coherence plane, end to end.

A writer hammers one entry's group view while a crowd of readers binds
through their caches.  The detector must flip the entry to push mode,
the readers must register as lessees and join the owner's multicast
group, and every subsequent committed write must arrive as a pushed
eviction -- all without a single ledger violation, because a pushed
invalidation only ever *shrinks* staleness below the lease bound.

The fault-path tests exercise the two hard transitions: an owner crash
(volatile registry and sequencer numbering; lessees must detect the
restart and rejoin fresh) and a reshard epoch flip (registry and
detector state handed over to the new owner, who keeps the entry in
push mode for its next readers).
"""

from tests.conftest import get_work
from tests.integration.test_leased_read_churn import audit_ledgers
from tests.integration.test_sharded_nameserver import build

import pytest

LEASE = 0.5


def coherence_build(**kwargs):
    defaults = dict(
        shards=2, objects=4, clients=3, scheme="standard",
        nameserver_replication=2, nameserver_lease=LEASE,
        nameserver_cache_ledger=True, nameserver_push_invalidation=True,
        nameserver_renewal=True, nameserver_hot_write_rate=1.0,
        dedicated_sync_nic=True, enable_recovery_managers=False)
    defaults.update(kwargs)
    return build(**defaults)


def churn_view(uid):
    """A transaction that mutates the entry's group view (a real
    naming write: excluding and re-including a server bumps the entry's
    versions, which is what the detector and the pushes key off)."""
    def work(txn):
        yield from txn._ctx.db.exclude(txn.action, [(uid, ["a2"])])
        yield from txn._ctx.db.include(txn.action, uid, "a2")
        return True
    return work


def counter_sum(system, suffix):
    return sum(value for name, value in system.metrics.snapshot().items()
               if name.endswith(suffix) and isinstance(value, int))


def drive_rounds(system, runtimes, hot, uids, rounds):
    """One writer churning the hot entry, everyone reading everything."""
    writer = runtimes[0]
    committed = 0
    for _ in range(rounds):
        if system.run_transaction(writer, churn_view(hot),
                                  timeout=30.0).committed:
            committed += 1
        for runtime in runtimes:
            for uid in uids:
                result = system.run_transaction(runtime, get_work(uid),
                                                timeout=30.0)
                assert result.committed and result.value == 0
    return committed


def reuse_hits(system, runtimes, uid):
    """Every client binds ``uid`` twice in a row; returns the cache hits
    that earned.  A bind is one lookup, so a hit is a real re-use: the
    second transaction served from what the first one fetched."""
    before = audit_ledgers(system)
    for runtime in runtimes:
        for _ in range(2):
            assert system.run_transaction(runtime, get_work(uid),
                                          timeout=30.0).committed
    return audit_ledgers(system) - before


@pytest.mark.parametrize("two_planes", [True, False],
                         ids=["dedicated-sync-nic", "single-plane"])
def test_write_hot_entry_flips_to_push_and_writes_evict(two_planes):
    system, runtimes, uids = coherence_build(dedicated_sync_nic=two_planes)
    hot, cold = uids[0], uids[1]
    committed = drive_rounds(system, runtimes, hot, uids, rounds=10)
    assert committed > 5

    owner = system.shard_router.shard_for(hot)
    host = system.coherence_hosts[owner]
    # The detector flipped the hammered entry -- and only it -- to push.
    assert host.mode_of(str(hot)) == "push"
    cold_owner = system.coherence_hosts[system.shard_router.shard_for(cold)]
    assert cold_owner.mode_of(str(cold)) == "pull"
    # The readers registered as lessees and their caches carry the mode.
    assert host.registry.lessees(str(hot)) != []
    modes = {cache.peek(str(hot)).mode
             for cache in system.entry_caches.values()
             if cache.peek(str(hot)) is not None}
    assert "push" in modes
    # Committed writes were pushed, and the cohort applied them.
    assert counter_sum(system, "coherence.pushes_sent") > 0
    assert counter_sum(system, "coherence.pushes_applied") > 0

    # One more committed write must evict every lessee's copy outright.
    before = counter_sum(system, "coherence.pushes_applied")
    assert system.run_transaction(runtimes[0], churn_view(hot),
                                  timeout=30.0).committed
    system.run(until=system.scheduler.now + 0.5)
    assert counter_sum(system, "coherence.pushes_applied") > before
    assert all(cache.peek(str(hot)) is None
               for cache in system.entry_caches.values())

    # Each evicted lessee refetches and re-registers once, and its next
    # bind is served from that push-mode copy, inside every bound.
    assert reuse_hits(system, runtimes, hot) == len(runtimes)


def test_renewal_extends_pull_entries_in_place():
    # Renewal alone (no push plane): validation probes that match the
    # cached versions extend the lease instead of re-snapshotting.
    system, runtimes, uids = build(
        shards=2, objects=3, clients=2, scheme="standard",
        nameserver_replication=2, nameserver_lease=LEASE,
        nameserver_cache_ledger=True, nameserver_renewal=True,
        enable_recovery_managers=False)
    hits = 0
    for _ in range(8):
        for uid in uids:
            hits += reuse_hits(system, runtimes, uid)
        system.run(until=system.scheduler.now + LEASE * 0.8)
    assert counter_sum(system, "entry_cache.renewed") > 0
    # A renewed entry is served again: the second bind of every pair hit.
    assert hits == 8 * len(uids) * len(runtimes)


def test_owner_crash_resets_the_plane_and_lessees_reattach():
    # A lower flip threshold: the post-recovery rounds run against cold
    # caches (every pre-crash entry aged out), so the writer's gap is
    # wider than in the warmed steady state.
    system, runtimes, uids = coherence_build(nameserver_hot_write_rate=0.3)
    hot = uids[0]
    drive_rounds(system, runtimes, hot, uids, rounds=8)
    owner = system.shard_router.shard_for(hot)
    host = system.coherence_hosts[owner]
    assert host.registry.lessees(str(hot)) != []
    applied_before = counter_sum(system, "coherence.pushes_applied")

    # The owner dies: registry, detector, and the sequencer numbering
    # are volatile, so the boot hook reinstalls everything empty.
    system.nodes[owner].crash()
    # Reads keep working through the surviving replica (pull fallback:
    # a dark owner fails the registration, never the read).
    for runtime in runtimes:
        result = system.run_transaction(runtime, get_work(hot), timeout=30.0)
        assert result.committed and result.value == 0
    system.nodes[owner].recover()
    system.run(until=system.scheduler.now + 1.0)
    assert len(host.registry) == 0, "recovery must come up empty"

    # The crowd re-heats the entry; lessees re-register against the
    # restarted sequencer (from_seq went backwards -> rejoin fresh) and
    # pushes flow again.
    drive_rounds(system, runtimes, hot, uids, rounds=8)
    assert host.registry.lessees(str(hot)) != []
    assert counter_sum(system, "coherence.pushes_applied") > applied_before
    assert audit_ledgers(system) > 0


def test_reshard_flip_hands_over_registry_and_detector():
    system, runtimes, uids = coherence_build(
        objects=8, nameserver_hot_write_rate=0.2)
    hot = uids[0]
    owners_before = {str(uid): system.shard_router.shard_for(uid)
                     for uid in uids}
    # Heat the hot entry and seed detector state on every entry (every
    # committed write feeds the owner's detector).
    writer = runtimes[0]
    for uid in uids[1:]:
        assert system.run_transaction(writer, churn_view(uid),
                                      timeout=30.0).committed
    drive_rounds(system, runtimes, hot, uids, rounds=6)
    old_owner = system.shard_router.shard_for(hot)
    assert system.coherence_hosts[old_owner].mode_of(str(hot)) == "push"

    epoch_before = system.shard_router.fence_epoch
    migration = system.add_shard_host()
    outcome = system.run_until(migration, timeout=300.0)
    assert outcome["flipped_at"] is not None
    assert system.shard_router.fence_epoch > epoch_before
    assert outcome.get("coherence_handovers", 0) > 0, \
        "the drain must hand the coherence state to the new owners"

    moved = [uid for uid in uids
             if system.shard_router.shard_for(uid) != owners_before[str(uid)]]
    assert moved, "the ring grew; some primaries must have moved"
    # The handed-over detector state survived the flip: the new owner
    # already knows the moved entries' write rates...
    for uid in moved:
        new_owner = system.coherence_hosts[system.shard_router.shard_for(uid)]
        assert new_owner.detector.effective_rate(str(uid)) > 0.0
    # ...so post-flip traffic re-heats and re-registers against the new
    # owner without a cold start, and the bounds all hold.
    drive_rounds(system, runtimes, hot, uids, rounds=6)
    live_owner = system.shard_router.shard_for(hot)
    live = system.coherence_hosts[live_owner]
    assert live.mode_of(str(hot)) == "push"
    assert live.registry.lessees(str(hot)) != []
    assert audit_ledgers(system) > 0
    fenced = sum(cache.fenced for cache in system.entry_caches.values())
    assert fenced > 0, "the flip must fence pre-change entries"
