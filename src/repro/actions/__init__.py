"""Atomic actions (atomic transactions).

The paper's computational model (section 2.2): application programs are
composed of atomic actions with serialisability, failure atomicity and
permanence of effect, manipulating persistent objects.  This package
implements:

- :mod:`~repro.actions.locks` -- multi-mode two-phase locking with READ,
  WRITE, the paper's type-specific **EXCLUDE_WRITE** mode (section
  4.2.1) and the commuting use-list modes **INCREMENT** / **DECREMENT**,
  including lock promotion;
- :mod:`~repro.actions.action` -- nested atomic actions, *independent*
  top-level actions and *nested top-level* actions (sections 4.1.2 and
  4.1.3, figures 6-8), with an intention-record list driving two-phase
  commit;
- :mod:`~repro.actions.records` -- reusable intention records
  (callbacks, remote participants).

Commit and abort are generators: they may perform RPCs, so they run
inside a simulation process (``yield from action.commit()``).  The same
classes also work without any network for purely local transactions
(unit tests use this heavily).
"""

from repro.actions.errors import (
    ActionAborted,
    ActionError,
    InvalidActionState,
    LockRefused,
    PrepareVetoed,
    PromotionRefused,
)
from repro.actions.locks import (
    LockManager,
    LockMode,
    lock_compatible,
    lock_covers,
)
from repro.actions.action import (
    AbstractRecord,
    ActionId,
    ActionStatus,
    AtomicAction,
    Vote,
    abort_on_failure,
)
from repro.actions.records import (
    CallbackRecord,
    RemoteParticipantRecord,
    ToldParticipantRecord,
)

__all__ = [
    "AbstractRecord",
    "ActionAborted",
    "ActionError",
    "ActionId",
    "ActionStatus",
    "AtomicAction",
    "CallbackRecord",
    "InvalidActionState",
    "LockManager",
    "LockMode",
    "LockRefused",
    "PrepareVetoed",
    "PromotionRefused",
    "RemoteParticipantRecord",
    "ToldParticipantRecord",
    "Vote",
    "abort_on_failure",
    "lock_compatible",
    "lock_covers",
]
