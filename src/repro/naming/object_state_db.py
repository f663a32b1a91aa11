"""The Object State database: ``UID -> St``.

Paper section 4.2: per object, a list of the host names of nodes whose
object stores contain states of the object.  Operations:

- ``GetView(objectname)`` -- read lock; returns the ``St`` list;
- ``Exclude(<objectname, nodelist>, ...)`` -- removes, for each named
  object, the listed hosts from its ``St`` set.  Requires promoting the
  caller's read lock; with the standard WRITE mode the promotion is
  refused whenever other clients share the entry, so section 4.2.1
  introduces the **exclude-write** lock type, shareable with read
  locks.  The constructor flag ``use_exclude_write_lock`` selects the
  mode (the E1 ablation benchmark flips it);
- ``Include(objectname, hostname)`` -- write lock; a recovered store
  node makes its (refreshed) state available again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.actions.locks import LockMode
from repro.naming.db_base import ActionDatabase, ActionPath, Version, digest
from repro.naming.errors import UnknownObject
from repro.storage.uid import Uid


@dataclass
class _StateEntry:
    hosts: list[str]
    # The write version's count (see _ServerEntry).
    version: int = 1


class ObjectStateDatabase(ActionDatabase):
    """``UID -> St`` mappings with per-entry locking."""

    name = "state_db"

    def __init__(self, use_exclude_write_lock: bool = True,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.use_exclude_write_lock = use_exclude_write_lock
        self._entries: dict[Uid, _StateEntry] = {}

    # -- administrative ----------------------------------------------------

    def define(self, action_path: ActionPath, uid: Uid, hosts: list[str]) -> None:
        """Create the entry for a new object (write lock)."""
        self._lock(action_path, self._key(uid), LockMode.WRITE)
        if uid in self._entries:
            raise ValueError(f"state entry already defined for {uid}")
        self._entries[uid] = _StateEntry(list(hosts))
        self._changed(uid)
        self._record_undo(action_path, lambda: self.forget(uid))

    def entry_version(self, uid: Uid) -> Version:
        """The entry's write version, ``(0, 0)`` when unknown here."""
        entry = self._entries.get(uid)
        if entry is None:
            return (0, 0)
        return entry.version, digest(entry.hosts)

    # -- paper operations -----------------------------------------------------

    def get_view(self, action_path: ActionPath, uid: Uid) -> list[str]:
        """``GetView``: the ``St`` list, under a read lock."""
        self._lock(action_path, self._key(uid), LockMode.READ)
        self.metrics.counter(f"{self.name}.get_view").increment()
        return list(self._entry(uid).hosts)

    def exclude(self, action_path: ActionPath,
                exclusions: list[tuple[Uid, list[str]]]) -> None:
        """``Exclude``: prune hosts found stale/crashed from ``St`` sets.

        Promotes the caller's lock on each touched entry to the
        configured exclusion mode.  A refused promotion propagates to
        the caller, which per the paper must abort its action.
        """
        mode = (LockMode.EXCLUDE_WRITE if self.use_exclude_write_lock
                else LockMode.WRITE)
        for uid, hosts in exclusions:
            self._lock(action_path, self._key(uid), mode)
            self.metrics.counter(f"{self.name}.exclude").increment()
            entry = self._entry(uid)
            mutated = False
            for host in hosts:
                if host not in entry.hosts:
                    continue
                position = entry.hosts.index(host)
                entry.hosts.remove(host)
                self._record_undo(
                    action_path,
                    lambda u=uid, h=host, p=position: self._reinsert(u, h, p))
                mutated = True
            if mutated:
                self._bump(action_path, uid)

    def include(self, action_path: ActionPath, uid: Uid, host: str) -> None:
        """``Include``: add a (recovered, refreshed) store host to ``St``."""
        self._lock(action_path, self._key(uid), LockMode.WRITE)
        self.metrics.counter(f"{self.name}.include").increment()
        entry = self._entry(uid)
        if host in entry.hosts:
            return  # idempotent
        entry.hosts.append(host)
        self._record_undo(action_path, lambda: self._remove_silently(uid, host))
        self._bump(action_path, uid)

    def install_entry(self, uid: Uid, hosts: list[str],
                      version: Version) -> bool:
        """Install a replica peer's committed entry (shard resync).

        Version-gated like its server-db counterpart: only a strictly
        greater peer version lands, so convergence always runs forward.
        Returns whether the entry was installed.
        """
        if self.entry_version(uid) >= tuple(version):
            return False
        self._entries[uid] = _StateEntry(list(hosts), version[0])
        self._changed(uid)
        return True

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _key(uid: Uid) -> tuple[str, Uid]:
        return ("st", uid)

    def _entry(self, uid: Uid) -> _StateEntry:
        entry = self._entries.get(uid)
        if entry is None:
            raise UnknownObject(f"no state entry for {uid}")
        return entry

    def _reinsert(self, uid: Uid, host: str, position: int) -> None:
        entry = self._entries.get(uid)
        if entry is not None and host not in entry.hosts:
            entry.hosts.insert(min(position, len(entry.hosts)), host)

    def _remove_silently(self, uid: Uid, host: str) -> None:
        entry = self._entries.get(uid)
        if entry is not None and host in entry.hosts:
            entry.hosts.remove(host)
