"""Reusable auditors: the paper's guarantee, checked in one place.

A committed binding is never *lost*, never served *stale* beyond its
stated bound, never *invented*.  Each auditor proves one face of that
claim against a finished run by looking at the system from outside --
re-reading state through the client path, or comparing the shard
databases directly -- and returns row fields that must all be zero.
The names of those fields are constructor arguments, so one auditor
serves scenarios whose rows call the same finding by different names;
``None`` drops a field from the row.

Auditors take the live system (not the runner's bookkeeping), so a
test can plant a defect and watch the matching ledger go non-zero.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.storage.uid import Uid
from repro.workload.generator import invoke


class CounterLedgerAudit:
    """Committed increments survive, and nothing else does.

    Re-reads every counter through a client transaction and compares it
    with the number of ``add(1)`` transactions the workload saw commit
    (the *ledger*).  A shortfall is a lost binding: some replica or
    moved arc dropped a committed write.  An excess is a stale-served
    or invented one: an aborted attempt's effect survived somewhere.
    A counter that cannot be read at all has lost everything it held.
    """

    def __init__(self, lost: str = "lost_bindings",
                 invented: str = "stale_bindings",
                 read_only: bool = True, reader: str | None = None) -> None:
        self.lost, self.invented = lost, invented
        self.read_only = read_only
        self.reader = reader  # client name; None -> the first client

    def audit(self, run: Any) -> dict[str, int]:
        return self.check(run.system, run.scenario.ledger(run))

    def check(self, system: Any, ledger: Mapping[Uid, int]) -> dict[str, int]:
        reader = (system.clients[self.reader] if self.reader
                  else next(iter(system.clients.values())))
        lost = invented = 0
        for uid, committed in ledger.items():
            result = system.run_transaction(reader, invoke(uid, "get"),
                                            read_only=self.read_only)
            if not result.committed:
                lost += committed
                continue
            lost += max(0, committed - result.value)
            invented += max(0, result.value - committed)
        return {self.lost: lost, self.invented: invented}


class PlacementAudit:
    """Every entry lives exactly on its owners, and the owners agree.

    ``misplaced`` counts (entry, shard) pairs where a shard database
    holds an entry the ring does not assign it, or lacks one it does --
    a migration that copied too little or garbage-collected too little.
    ``disagreements`` counts entries whose owner replicas differ in
    ``Sv``, use lists or ``St`` once the run has settled -- a write or
    repair that reached only part of the replica set.
    """

    def __init__(self, misplaced: str | None = "misplaced_entries",
                 disagreements: str | None = "replica_disagreements") -> None:
        self.misplaced, self.disagreements = misplaced, disagreements

    def audit(self, run: Any) -> dict[str, int]:
        return self.check(run.system, run.uids)

    def check(self, system: Any, uids: Sequence[Uid]) -> dict[str, int]:
        replication = system.config.nameserver_replication
        misplaced = disagreements = 0
        for uid in uids:
            owners = system.shard_router.preference_list(uid, replication)
            misplaced += sum(db.knows(str(uid)) != (shard in owners)
                             for shard, db in system.db.shards.items())
            states = []
            for shard in owners:
                db = system.db.shards[shard]
                snapshot = db.get_server_with_uses((0,), str(uid))
                states.append((tuple(snapshot.hosts),
                               {h: dict(c) for h, c in snapshot.uses.items()},
                               tuple(db.get_view((0,), str(uid)))))
            system._release_probe_locks()
            disagreements += any(state != states[0] for state in states)
        found = {self.misplaced: misplaced, self.disagreements: disagreements}
        return {key: value for key, value in found.items() if key}


class UseListAudit:
    """Every binding's use counts are gone, and the owners agree on them.

    For a run that ends with no client mid-transaction, so every
    ``Increment`` has met its ``Decrement``.  ``leftover`` sums the
    use-list counters still held by every owner replica of every entry:
    a lost unbind, or a counter move undone that had committed.
    ``disagreements`` counts entries whose owners' use lists differ:
    counter moves that did not commute.  Neither shows in the counter
    ledger; unlike :class:`PlacementAudit` this one also reads the
    paper's single name node and asks for zero.
    """

    def __init__(self, leftover: str = "leftover_uses",
                 disagreements: str = "use_list_disagreements") -> None:
        self.leftover, self.disagreements = leftover, disagreements

    def audit(self, run: Any) -> dict[str, int]:
        return self.check(run.system, run.uids)

    def check(self, system: Any, uids: Sequence[Uid]) -> dict[str, int]:
        leftover = disagreements = 0
        for uid in uids:
            if system.shard_router is None:
                owners = [system.db]
            else:
                owners = [system.db.shards[shard] for shard in
                          system.shard_router.preference_list(
                              uid, system.config.nameserver_replication)]
            lists = []
            for db in owners:
                uses = db.get_server_with_uses((0,), str(uid)).uses
                lists.append({h: dict(c) for h, c in uses.items()})
                leftover += sum(sum(c.values()) for c in uses.values())
            system._release_probe_locks()
            disagreements += any(uses != lists[0] for uses in lists)
        return {self.leftover: leftover, self.disagreements: disagreements}


class CacheLedgerAudit:
    """No cache-served read escaped its lease or its fence epoch.

    Every client cache (booted with ``nameserver_cache_ledger``) records
    each read it served locally; a violation is one served past its
    lease TTL or tagged with a fence epoch the ring had already left --
    the staleness bound the leased read plane promises.
    """

    def __init__(self, violations: str = "ledger_violations") -> None:
        self.violations = violations

    def audit(self, run: Any) -> dict[str, int]:
        return self.check(run.system)

    def check(self, system: Any) -> dict[str, int]:
        return {self.violations: sum(len(cache.ledger_violations())
                                     for cache in system.entry_caches.values())}
