"""The persistent object programming model.

Users define persistent classes the way Arjuna programmers did: subclass
:class:`PersistentObject`, implement ``save_state``/``restore_state``
with the typed buffers, and mark invocable methods with the
:func:`operation` decorator declaring their lock mode::

    class Account(PersistentObject):
        TYPE_NAME = "examples.Account"

        def __init__(self, uid, balance=0):
            super().__init__(uid)
            self.balance = balance

        def save_state(self, out):
            out.pack_int(self.balance)

        def restore_state(self, state):
            self.balance = state.unpack_int()

        @operation(LockMode.READ)
        def get_balance(self):
            return self.balance

        @operation(LockMode.WRITE)
        def deposit(self, amount):
            self.balance += amount
            return self.balance

Classes must be registered with an :class:`ObjectClassRegistry` known to
every node that can run servers, so that activation can re-instantiate
an object from its stored state.
"""

from __future__ import annotations

from typing import Any, Callable, Type, TypeVar

from repro.actions.locks import LockMode
from repro.storage.states import InputObjectState, OutputObjectState
from repro.storage.uid import Uid

_OP_MODE_ATTR = "_repro_operation_mode"

F = TypeVar("F", bound=Callable[..., Any])


def operation(mode: LockMode) -> Callable[[F], F]:
    """Mark a method as remotely invocable with the given lock mode."""

    def mark(fn: F) -> F:
        setattr(fn, _OP_MODE_ATTR, mode)
        return fn

    return mark


def operation_mode(obj: Any, op_name: str) -> LockMode | None:
    """The declared lock mode of ``obj.op_name``, or ``None`` if not an
    operation."""
    fn = getattr(type(obj), op_name, None)
    return getattr(fn, _OP_MODE_ATTR, None)


class PersistentObject:
    """Base class for user-defined persistent objects.

    Subclasses must set :attr:`TYPE_NAME`, implement the two state
    methods, and have a constructor callable as ``cls(uid)`` (further
    parameters need defaults) so that activation can instantiate a blank
    object before restoring its state.
    """

    TYPE_NAME = "repro.core.PersistentObject"

    def __init__(self, uid: Uid) -> None:
        self.uid = uid

    # -- persistence interface -----------------------------------------------

    def save_state(self, out: OutputObjectState) -> None:
        raise NotImplementedError

    def restore_state(self, state: InputObjectState) -> None:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def serialise(self) -> bytes:
        out = OutputObjectState(self.uid, self.TYPE_NAME)
        self.save_state(out)
        return out.buffer()

    @classmethod
    def deserialise(cls, buffer: bytes) -> "PersistentObject":
        state = InputObjectState(buffer)
        if state.type_name != cls.TYPE_NAME:
            raise TypeError(
                f"buffer holds a {state.type_name}, not a {cls.TYPE_NAME}")
        instance = cls(state.uid)
        instance.restore_state(state)
        return instance


class ObjectClassRegistry:
    """Maps TYPE_NAMEs to classes for activation."""

    def __init__(self) -> None:
        self._classes: dict[str, Type[PersistentObject]] = {}

    def register(self, cls: Type[PersistentObject]) -> Type[PersistentObject]:
        """Register ``cls`` (usable as a class decorator)."""
        if not issubclass(cls, PersistentObject):
            raise TypeError(f"{cls.__name__} is not a PersistentObject")
        existing = self._classes.get(cls.TYPE_NAME)
        if existing is not None and existing is not cls:
            raise ValueError(f"TYPE_NAME already registered: {cls.TYPE_NAME}")
        self._classes[cls.TYPE_NAME] = cls
        return cls

    def instantiate(self, buffer: bytes) -> PersistentObject:
        """Re-create an object from a serialised state buffer."""
        state = InputObjectState(buffer)
        cls = self._classes.get(state.type_name)
        if cls is None:
            raise KeyError(f"no registered class for {state.type_name!r}")
        instance = cls(state.uid)
        instance.restore_state(InputObjectState(buffer))
        return instance

    def class_for(self, type_name: str) -> Type[PersistentObject]:
        cls = self._classes.get(type_name)
        if cls is None:
            raise KeyError(f"no registered class for {type_name!r}")
        return cls

    def mode_for(self, type_name: str, op_name: str) -> LockMode | None:
        """Declared lock mode of ``op_name`` on the named class."""
        cls = self.class_for(type_name)
        fn = getattr(cls, op_name, None)
        return getattr(fn, _OP_MODE_ATTR, None)
