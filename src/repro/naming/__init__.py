"""The naming and binding service -- the paper's primary contribution.

For every persistent object ``A`` the service maintains (section 3.1):

- ``Sv_A`` -- the nodes capable of running a server for ``A``, held in
  the :class:`~repro.naming.object_server_db.ObjectServerDatabase`
  (operations ``GetServer``, ``Insert``, ``Remove``, and the use-list
  operations ``Increment``/``Decrement`` of section 4.1.3);
- ``St_A`` -- the nodes whose object stores hold states of ``A``, held
  in the :class:`~repro.naming.object_state_db.ObjectStateDatabase`
  (operations ``GetView``, ``Exclude``, ``Include`` of section 4.2).

Both databases are persistent objects operated under atomic actions;
every per-object entry is independently concurrency-controlled with the
lock modes of :mod:`repro.actions.locks`.  As in the Arjuna
implementation the paper describes, the two databases are combined into
a single :class:`~repro.naming.group_view_db.GroupViewDatabase` object.

:mod:`~repro.naming.binding` implements the three client access schemes
of figures 6-8 (standard nested actions, independent top-level actions,
nested top-level actions); :mod:`~repro.naming.cleanup` implements the
failure-detection/cleanup protocol the paper notes is required for the
use-list schemes; :mod:`~repro.naming.nonatomic` implements the
concluding-remarks variant with a traditional (non-atomic) name server.

Beyond the paper, :mod:`~repro.naming.shard_router` and
:mod:`~repro.naming.sharded_client` partition the database across a
consistent-hash ring of store hosts so binding traffic scales
horizontally while every entry keeps its per-entry lock semantics on
its owning shard; with ``nameserver_replication > 1`` each entry is
replicated over its ring arc's preference list and
:mod:`~repro.naming.shard_resync` catches recovered shard hosts up
from their replica peers.  :mod:`~repro.naming.reshard` makes the ring
*elastic* -- membership changes migrate live under dual-ownership
routing -- and :mod:`~repro.naming.read_repair` closes residual
staleness windows at read time.  :mod:`~repro.naming.entry_cache` is
the *leased read plane*: per-client snapshots of hot entries served
RPC- and lock-free while their lease TTL and the ring's fence epoch
hold -- the paper's "act on possibly out-of-date information, detect
at use time" made into a first-class, bounded mechanism (see
``docs/architecture.md``).
"""

from repro.naming.errors import NamingError, NotQuiescent, UnknownObject
from repro.naming.object_server_db import ObjectServerDatabase, ServerEntrySnapshot
from repro.naming.object_state_db import ObjectStateDatabase
from repro.naming.group_view_db import GroupViewDatabase
from repro.naming.db_client import GroupViewDbClient
from repro.naming.binding import (
    BindOutcome,
    BindingScheme,
    IndependentTopLevelBinding,
    NestedTopLevelBinding,
    StandardBinding,
)
from repro.naming.cleanup import UseListCleaner
from repro.naming.entry_cache import EntryCache
from repro.naming.nonatomic import NonAtomicNameServer
from repro.naming.read_repair import ReadRepairer
from repro.naming.replica_io import EntryCopy, ReplicaIO
from repro.naming.reshard import (
    ReshardAborted,
    ReshardError,
    ReshardInProgress,
    ReshardManager,
    ShardAutoscaler,
)
from repro.naming.shard_router import RingTransition, RingView, ShardRouter
from repro.naming.shard_resync import ShardResyncManager
from repro.naming.sharded_client import (
    ShardedGroupViewDatabase,
    ShardedGroupViewDbClient,
)

__all__ = [
    "BindOutcome",
    "BindingScheme",
    "GroupViewDatabase",
    "GroupViewDbClient",
    "IndependentTopLevelBinding",
    "NamingError",
    "NestedTopLevelBinding",
    "NonAtomicNameServer",
    "NotQuiescent",
    "ObjectServerDatabase",
    "ObjectStateDatabase",
    "EntryCache",
    "EntryCopy",
    "ReadRepairer",
    "ReplicaIO",
    "ReshardAborted",
    "ReshardError",
    "ReshardInProgress",
    "ReshardManager",
    "RingTransition",
    "RingView",
    "ServerEntrySnapshot",
    "ShardAutoscaler",
    "ShardResyncManager",
    "ShardRouter",
    "ShardedGroupViewDatabase",
    "ShardedGroupViewDbClient",
    "StandardBinding",
    "UnknownObject",
    "UseListCleaner",
]
