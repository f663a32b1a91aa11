"""The Object Server database: ``UID -> Sv`` plus use lists.

Paper section 4.1: per object, a list of the host names of nodes able to
run a server for it.  Operations:

- ``GetServer(objectname)`` -- read lock; returns the ``Sv`` list;
- ``Insert(objectname, hostname)`` -- write lock; adds a server node,
  succeeding only when the object is quiescent;
- ``Remove(objectname, hostname)`` -- write lock; the complement.

Section 4.1.3 extends each entry with a *use list* per server host --
``<Ni, Ci>`` pairs counting, per client node, how many of that node's
clients are using the server -- and adds:

- ``Increment(clientnode, hostname...)`` -- an INCREMENT lock;
- ``Decrement(clientnode, hostname...)`` -- a DECREMENT lock.

The paper write-locks both.  Counter arithmetic commutes, so this
database takes the type-specific use-list modes of
:mod:`repro.actions.locks` instead; a binding action's write-intent
read takes INCREMENT too.  A Decrement then shares the entry with a
binding action and with other Decrements, while binders still exclude
each other.  The binder's snapshot counts every uncommitted
Decrement's use back in (a short pending-decrement list, dropped when
that action commits or aborts), so it is serialised before any
Decrement it overlaps and never acts on one that later aborts.
``Remove`` (and ``Insert``, ``define``, the janitor's use-count
repair) keep the write lock: ``Remove``'s undo restores a snapshot,
which would erase a concurrent counter move, while the counter
operations undo by the inverse delta and bump the version count by
plain arithmetic -- any interleaving and any commit order converge.

An object is quiescent when no action holds locks on its entry and all
of its use lists are empty.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Generator, Mapping

from repro.actions.action import ActionId
from repro.actions.errors import LockRefused, PromotionRefused
from repro.actions.locks import LockMode
from repro.naming.db_base import (
    ActionDatabase, ActionPath, Parking, Version, _is_prefix, digest)
from repro.naming.errors import NotQuiescent, UnknownObject
from repro.storage.uid import Uid


@dataclass
class _ServerEntry:
    """Mutable per-object record: ordered host list + use lists."""

    hosts: list[str]
    # uses[host][client_node] = count of that node's clients bound to host
    uses: dict[str, dict[str, int]]
    # The write version's count: bumped by every committed mutation
    # (undo un-bumps aborted ones), so replica shards applying the same
    # op stream agree on it.  The digest is derived from the content.
    version: int = 1


@dataclass(frozen=True)
class ServerEntrySnapshot:
    """What ``GetServer`` (enhanced form) returns: an immutable view."""

    hosts: tuple[str, ...]
    uses: Mapping[str, Mapping[str, int]]

    @property
    def all_uses_empty(self) -> bool:
        return all(not counters for counters in self.uses.values())

    def used_hosts(self) -> list[str]:
        """Hosts whose use list has at least one non-zero counter."""
        return [h for h in self.hosts if self.uses.get(h)]


class ObjectServerDatabase(ActionDatabase):
    """``UID -> Sv`` mappings with per-entry locking and use lists."""

    name = "server_db"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._entries: dict[Uid, _ServerEntry] = {}
        # Decrements applied but not yet committed or aborted, one per
        # counter moved: (action path, uid, client node, host).
        self._pending: list[tuple[ActionPath, Uid, str, str]] = []

    # -- administrative -----------------------------------------------------

    def define(self, action_path: ActionPath, uid: Uid, hosts: list[str]) -> None:
        """Create the entry for a new object (write lock)."""
        self._lock(action_path, self._key(uid), LockMode.WRITE)
        if uid in self._entries:
            raise ValueError(f"server entry already defined for {uid}")
        self._entries[uid] = _ServerEntry(list(hosts), {h: {} for h in hosts})
        self._changed(uid)
        self._record_undo(action_path, lambda: self.forget(uid))

    def entry_version(self, uid: Uid) -> Version:
        """The entry's write version, ``(0, 0)`` when unknown here.

        The digest covers ``Sv`` in order (order is content: it is the
        binding preference) and the use lists sorted.
        """
        entry = self._entries.get(uid)
        if entry is None:
            return (0, 0)
        uses = sorted((host, sorted(counters.items()))
                      for host, counters in entry.uses.items())
        return entry.version, digest((entry.hosts, uses))

    # -- paper operations ------------------------------------------------------

    def get_server(self, action_path: ActionPath, uid: Uid) -> list[str]:
        """``GetServer``: the ``Sv`` list, under a read lock."""
        self._lock(action_path, self._key(uid), LockMode.READ)
        self.metrics.counter(f"{self.name}.get_server").increment()
        return list(self._entry(uid).hosts)

    def get_server_with_uses(self, action_path: ActionPath, uid: Uid,
                             for_update: bool = False,
                             park: Parking | None = None,
                             ) -> ServerEntrySnapshot | Generator[
                                 Any, Any, ServerEntrySnapshot]:
        """Enhanced ``GetServer`` returning use lists too (section 4.1.3).

        ``for_update=True`` takes the INCREMENT lock immediately: the
        figure-7/8 binding actions always follow this read with
        ``Increment``/``Remove``, and read-then-promote would livelock
        concurrent binders under try-lock semantics (every binder holds
        a read lock that blocks every other binder's promotion).  The
        use lists count each uncommitted Decrement of an unrelated
        action back in: the reader is serialised before it.

        With ``park``, a request behind older holders parks and a
        generator is returned that yields the snapshot once granted
        (see :mod:`repro.actions.locks`); binders then serialise by
        waiting rather than by refusal and retry.
        """
        mode = LockMode.INCREMENT if for_update else LockMode.READ
        parked = self._lock(action_path, self._key(uid), mode, park)
        if parked is not None:
            assert park is not None
            return self._granted(parked, mode, park[0], lambda: (
                self.get_server_with_uses(action_path, uid, for_update)))
        self.metrics.counter(f"{self.name}.get_server").increment()
        entry = self._entry(uid)
        frozen_uses = {h: dict(c) for h, c in entry.uses.items()}
        if self._pending:
            reader = ActionId(tuple(action_path))
            for path, pending_uid, client_node, host in self._pending:
                if (pending_uid == uid and host in frozen_uses
                        and not reader.related(ActionId(path))):
                    counters = frozen_uses[host]
                    counters[client_node] = counters.get(client_node, 0) + 1
        return ServerEntrySnapshot(tuple(entry.hosts), frozen_uses)

    def insert(self, action_path: ActionPath, uid: Uid, host: str) -> None:
        """``Insert``: add a server node; only succeeds when quiescent.

        The write lock already guarantees no client holds entry locks;
        the additional use-list check covers the enhanced schemes where
        clients do not retain read locks while using the object.
        """
        self._lock(action_path, self._key(uid), LockMode.WRITE)
        self.metrics.counter(f"{self.name}.insert").increment()
        entry = self._entry(uid)
        if any(entry.uses.values()):
            raise NotQuiescent(
                f"insert({uid}, {host}): object has active users")
        if host in entry.hosts:
            return  # idempotent: recovering node re-inserting itself
        entry.hosts.append(host)
        entry.uses.setdefault(host, {})
        self._record_undo(action_path, lambda: self._remove_silently(uid, host))
        self._bump(action_path, uid)

    def remove(self, action_path: ActionPath, uid: Uid, host: str) -> None:
        """``Remove``: drop a server node from ``Sv`` (write lock)."""
        self._lock(action_path, self._key(uid), LockMode.WRITE)
        self.metrics.counter(f"{self.name}.remove").increment()
        entry = self._entry(uid)
        if host not in entry.hosts:
            return
        position = entry.hosts.index(host)
        saved_uses = copy.deepcopy(entry.uses.get(host, {}))
        entry.hosts.remove(host)
        entry.uses.pop(host, None)

        def undo() -> None:
            restored = self._entries.get(uid)
            if restored is not None and host not in restored.hosts:
                restored.hosts.insert(min(position, len(restored.hosts)), host)
                restored.uses[host] = copy.deepcopy(saved_uses)

        self._record_undo(action_path, undo)
        self._bump(action_path, uid)

    def increment(self, action_path: ActionPath, client_node: str, uid: Uid,
                  hosts: list[str]) -> None:
        """``Increment``: bump the client node's counter on each host's
        use list (INCREMENT lock)."""
        self._lock(action_path, self._key(uid), LockMode.INCREMENT)
        self.metrics.counter(f"{self.name}.increment").increment()
        entry = self._entry(uid)
        for host in hosts:  # all or nothing: no counter moves unbumped
            if host not in entry.uses:
                raise UnknownObject(f"{host} is not in Sv for {uid}")
        for host in hosts:
            counters = entry.uses[host]
            counters[client_node] = counters.get(client_node, 0) + 1
            self._record_undo(
                action_path,
                lambda h=host: self._shift_counter(uid, client_node, h, -1))
        self._bump(action_path, uid)

    def decrement(self, action_path: ActionPath, client_node: str, uid: Uid,
                  hosts: list[str]) -> None:
        """``Decrement``: the complement of ``Increment`` (DECREMENT lock,
        shared with binders and other Decrements)."""
        self._lock(action_path, self._key(uid), LockMode.DECREMENT)
        self.metrics.counter(f"{self.name}.decrement").increment()
        entry = self._entry(uid)
        mutated = False
        for host in hosts:
            counters = entry.uses.get(host)
            if not counters or counters.get(client_node, 0) <= 0:
                continue  # tolerated: the janitor may have lowered it
            self._set_counter(uid, client_node, host,
                              counters[client_node] - 1)
            self._record_undo(
                action_path,
                lambda h=host: self._shift_counter(uid, client_node, h, 1))
            self._pending.append((tuple(action_path), uid, client_node, host))
            mutated = True
        if mutated:
            self._bump(action_path, uid)

    def use_counts(self) -> dict[str, tuple[Version, set[str]]]:
        """Every entry with a use count, by uid text: its write version
        and the clients its use lists name.  Lock-free, for the
        janitor's scan: it judges an entry only at a version it saw one
        round earlier, and :meth:`lower_uses` checks that version again
        under a lock.
        """
        return {str(uid): (self.entry_version(uid),
                           {client for counters in entry.uses.values()
                            for client in counters})
                for uid, entry in self._entries.items()
                if any(entry.uses.values())}

    def lower_uses(self, action_path: ActionPath, uid: Uid, version: Version,
                   held: Mapping[str, Mapping[str, int]]) -> bool:
        """Lower each asked client's counters on the entry to the uses
        it holds (``held``: client node -> ``{host: count}``).

        The failure-detection and cleanup protocol of section 4.1.3:
        "a crash of a client does not automatically undo changes made
        to the database".  A silent client holds nothing.  Takes the
        write lock; an entry a live action holds, or one no longer at
        ``version``, is left for a later round.  Returns whether a
        counter moved.
        """
        try:
            self._lock(action_path, self._key(uid), LockMode.WRITE)
        except (LockRefused, PromotionRefused):
            return False
        entry = self._entries.get(uid)
        if entry is None or self.entry_version(uid) != tuple(version):
            return False
        lowered = False
        for host, counters in entry.uses.items():
            for client, uses in held.items():
                count, keep = counters.get(client, 0), uses.get(host, 0)
                if keep < count:
                    self._set_counter(uid, client, host, keep)
                    self._record_undo(
                        action_path,
                        lambda h=host, c=client, n=count: self._set_counter(
                            uid, c, h, n))
                    lowered = True
        if lowered:
            self._bump(action_path, uid)
        return lowered

    def install_entry(self, uid: Uid, hosts: list[str],
                      uses: Mapping[str, Mapping[str, int]],
                      version: Version) -> bool:
        """Install a replica peer's committed entry (shard resync).

        Version-gated: the copy applies only when the peer's write
        version is strictly ahead of ours, so resync and anti-entropy
        always converge replicas *forward* — a stale peer can never
        overwrite a fresher copy, whichever side sweeps first, and of
        two equal-count copies the greater digest wins on every
        replica.  No locks are taken: callers must hold the entry's
        write lock or keep the database out of the serving path.
        Counters for hosts outside ``hosts`` are dropped, preserving the
        invariant that use lists exist exactly for Sv members.  Returns
        whether the entry was installed.
        """
        if self.entry_version(uid) >= tuple(version):
            return False
        fresh_uses = {h: dict(uses.get(h, {})) for h in hosts}
        self._entries[uid] = _ServerEntry(list(hosts), fresh_uses, version[0])
        self._changed(uid)
        return True

    def _set_counter(self, uid: Uid, client_node: str, host: str,
                     count: int) -> None:
        """Set one counter; at zero (or below) it leaves the use list."""
        entry = self._entries.get(uid)
        if entry is not None and host in entry.uses:
            if count > 0:
                entry.uses[host][client_node] = count
            else:
                entry.uses[host].pop(client_node, None)

    # -- 2PC participant: the pending Decrements resolve too ----------------

    def commit(self, action_path: ActionPath) -> None:
        self._drop_pending(action_path)
        super().commit(action_path)

    def abort(self, action_path: ActionPath) -> None:
        self._drop_pending(action_path)
        super().abort(action_path)

    def _drop_pending(self, action_path: ActionPath) -> None:
        if self._pending:
            path = tuple(action_path)
            self._pending = [pending for pending in self._pending
                             if not _is_prefix(path, pending[0])]

    # -- quiescence -------------------------------------------------------------

    def is_quiescent(self, uid: Uid) -> bool:
        """True if no locks are held on the entry and all use lists are
        empty -- the paper's definition of a quiescent/passive object."""
        entry = self._entries.get(uid)
        if entry is None:
            raise UnknownObject(str(uid))
        if self.locks.is_locked(self._key(uid)):
            return False
        return not any(entry.uses.values())

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _key(uid: Uid) -> tuple[str, Uid]:
        return ("sv", uid)

    def _entry(self, uid: Uid) -> _ServerEntry:
        entry = self._entries.get(uid)
        if entry is None:
            raise UnknownObject(f"no server entry for {uid}")
        return entry

    def _remove_silently(self, uid: Uid, host: str) -> None:
        entry = self._entries.get(uid)
        if entry is not None and host in entry.hosts:
            entry.hosts.remove(host)
            entry.uses.pop(host, None)

    def _shift_counter(self, uid: Uid, client_node: str, host: str,
                       delta: int) -> None:
        """Move one counter by ``delta``: the undo of a counter move."""
        entry = self._entries.get(uid)
        if entry is not None and host in entry.uses:
            self._set_counter(uid, client_node, host,
                              entry.uses[host].get(client_node, 0) + delta)
