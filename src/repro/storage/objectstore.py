"""The stable object store.

One :class:`ObjectStore` lives on each node that persists object states
(the nodes in the paper's ``St`` sets).  It follows the shadow-copy
discipline of Arjuna's object store:

- :meth:`write_shadow` records a *prepared* (uncommitted) state;
- :meth:`commit_shadow` atomically installs the shadow as the committed
  state, bumping the stored version;
- :meth:`discard_shadow` throws the shadow away (abort).

Committed states survive crashes (stable storage); shadows do not --
a crash between prepare and commit leaves the old committed state, which
is exactly the failure-atomicity the two-phase commit protocol relies
on.  Versions are monotonically increasing per object and are how a
recovering store detects that its state is stale (paper section 4.2:
"a crashed node with an object store must ensure, upon recovery, that
its objects do contain the latest committed states").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.errors import NoSuchShadow, NoSuchState, StoreUnavailable
from repro.storage.uid import Uid


@dataclass(frozen=True)
class StoredState:
    """A committed object state plus its version stamp."""

    uid: Uid
    buffer: bytes
    version: int


class ObjectStore:
    """Per-node stable storage for passive object states."""

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self._committed: dict[Uid, StoredState] = {}
        self._shadows: dict[Uid, StoredState] = {}
        self._available = True
        self.commits = 0
        self.aborts = 0

    # -- availability (driven by the owning node) ---------------------------

    def mark_down(self) -> None:
        """Node crash: shadows are lost, committed states survive."""
        self._available = False
        self._shadows.clear()

    def mark_up(self) -> None:
        self._available = True

    # -- reads ----------------------------------------------------------------

    def read_committed(self, uid: Uid) -> StoredState:
        """Return the committed state, or raise :class:`NoSuchState`."""
        self._check_up()
        state = self._committed.get(uid)
        if state is None:
            raise NoSuchState(f"{self.node_name} has no state for {uid}")
        return state

    def contains(self, uid: Uid) -> bool:
        self._check_up()
        return uid in self._committed

    def version_of(self, uid: Uid) -> int:
        """Committed version, or 0 if the object is unknown here."""
        self._check_up()
        state = self._committed.get(uid)
        return state.version if state else 0

    def uids(self) -> list[Uid]:
        """All object UIDs with committed states here."""
        self._check_up()
        return sorted(self._committed)

    # -- two-phase writes ----------------------------------------------------

    def write_shadow(self, uid: Uid, buffer: bytes, version: int) -> None:
        """Prepare a new state; invisible until :meth:`commit_shadow`."""
        self._check_up()
        if version <= self.version_of(uid):
            raise ValueError(
                f"shadow version {version} not newer than committed "
                f"{self.version_of(uid)} for {uid}")
        self._shadows[uid] = StoredState(uid, buffer, version)

    def commit_shadow(self, uid: Uid) -> None:
        """Atomically install the prepared state as committed.

        A shadow that became stale between prepare and commit (a
        recovery refresh installed a fresher version meanwhile) is
        discarded rather than committed: versions never regress.
        """
        self._check_up()
        shadow = self._shadows.pop(uid, None)
        if shadow is None:
            raise NoSuchShadow(f"{self.node_name} has no shadow for {uid}")
        if shadow.version <= self.version_of(uid):
            self.aborts += 1
            return
        self._committed[uid] = shadow
        self.commits += 1

    def discard_shadow(self, uid: Uid) -> None:
        """Drop the prepared state (abort).  Idempotent."""
        self._check_up()
        if self._shadows.pop(uid, None) is not None:
            self.aborts += 1

    def has_shadow(self, uid: Uid) -> bool:
        self._check_up()
        return uid in self._shadows

    def shadow_version_of(self, uid: Uid) -> int:
        """Version of the prepared shadow, or 0 if none exists."""
        self._check_up()
        shadow = self._shadows.get(uid)
        return shadow.version if shadow else 0

    # -- direct installs ------------------------------------------------------

    def install(self, uid: Uid, buffer: bytes, version: int) -> None:
        """Install a committed state directly.

        Used for initial object creation and by the recovery protocol
        when refreshing a stale store from an up-to-date peer; the
        version must not regress.
        """
        self._check_up()
        if version < self.version_of(uid):
            raise ValueError(
                f"refusing to regress {uid} from version "
                f"{self.version_of(uid)} to {version}")
        self._committed[uid] = StoredState(uid, buffer, version)

    # -- internals -------------------------------------------------------------

    def _check_up(self) -> None:
        if not self._available:
            raise StoreUnavailable(f"object store on {self.node_name} is down")
