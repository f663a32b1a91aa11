"""Exceptions raised by the atomic-action subsystem."""


class ActionError(Exception):
    """Base class for action-layer errors."""


class LockRefused(ActionError):
    """A lock request conflicted with locks held by unrelated actions.

    A refused lock is reported to the caller, who may retry or abort
    (paper: "if the lock promotion succeeds, the exclude operation can
    be performed, else the client action must abort") -- immediately,
    or, for a request that parked behind older holders, once its wait
    is over (see :mod:`repro.actions.locks`).
    """


class PromotionRefused(LockRefused):
    """Specifically, upgrading an already-held lock was refused.

    The paper's motivating case: several clients hold read locks on a
    database entry and one of them asks to promote to write for an
    Exclude -- the promotion is refused (section 4.2.1).
    """


class ActionAborted(ActionError):
    """The action was aborted (by the client, a veto, or a failure)."""


class InvalidActionState(ActionError):
    """An operation was attempted in the wrong lifecycle state."""


class PrepareVetoed(ActionError):
    """A participant voted to abort during the prepare phase."""
