"""Object storage substrate.

The paper's Object Storage service (section 2.2): a stable repository
for the passive states of persistent objects, named by unique
identifiers.

- :class:`~repro.storage.uid.Uid` / :class:`~repro.storage.uid.UidFactory`
  -- unique object identifiers.
- :class:`~repro.storage.states.OutputObjectState` /
  :class:`~repro.storage.states.InputObjectState` -- typed serialisation
  buffers objects use to save and restore their instance variables
  (modelled on Arjuna's ObjectState).
- :class:`~repro.storage.objectstore.ObjectStore` -- a per-node stable
  store with shadow-copy atomic writes: prepared states become visible
  only at commit, and incomplete writes never survive a crash.
"""

from repro.storage.errors import (
    DeserialisationError,
    NoSuchShadow,
    NoSuchState,
    StorageError,
    StoreUnavailable,
)
from repro.storage.objectstore import ObjectStore, StoredState
from repro.storage.states import InputObjectState, OutputObjectState
from repro.storage.uid import Uid, UidFactory

__all__ = [
    "DeserialisationError",
    "InputObjectState",
    "NoSuchShadow",
    "NoSuchState",
    "ObjectStore",
    "OutputObjectState",
    "StorageError",
    "StoreUnavailable",
    "StoredState",
    "Uid",
    "UidFactory",
]
