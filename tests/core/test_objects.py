"""Tests for the persistent object programming model."""

import pytest

from repro import LockMode, PersistentObject, operation
from repro.core.objects import ObjectClassRegistry, operation_mode
from repro.storage import Uid

from tests.conftest import Counter, Register


def test_serialise_deserialise_roundtrip():
    counter = Counter(Uid("n", 1), value=42)
    clone = Counter.deserialise(counter.serialise())
    assert clone.value == 42
    assert clone.uid == counter.uid


def test_deserialise_type_check():
    counter = Counter(Uid("n", 1), value=1)
    with pytest.raises(TypeError):
        Register.deserialise(counter.serialise())


def test_operation_modes_declared():
    counter = Counter(Uid("n", 1))
    assert operation_mode(counter, "get") is LockMode.READ
    assert operation_mode(counter, "add") is LockMode.WRITE
    assert operation_mode(counter, "save_state") is None
    assert operation_mode(counter, "nonexistent") is None


def test_registry_instantiate():
    registry = ObjectClassRegistry()
    registry.register(Counter)
    original = Counter(Uid("n", 7), value=9)
    clone = registry.instantiate(original.serialise())
    assert isinstance(clone, Counter)
    assert clone.value == 9


def test_registry_rejects_non_persistent_class():
    registry = ObjectClassRegistry()
    with pytest.raises(TypeError):
        registry.register(object)


def test_registry_rejects_conflicting_type_name():
    registry = ObjectClassRegistry()
    registry.register(Counter)

    class Impostor(PersistentObject):
        TYPE_NAME = Counter.TYPE_NAME

        def save_state(self, out):
            pass

        def restore_state(self, state):
            pass

    with pytest.raises(ValueError):
        registry.register(Impostor)


def test_registry_reregister_same_class_ok():
    registry = ObjectClassRegistry()
    registry.register(Counter)
    registry.register(Counter)  # idempotent


def test_registry_unknown_type():
    registry = ObjectClassRegistry()
    reg = Register(Uid("n", 1), text="x")
    with pytest.raises(KeyError):
        registry.instantiate(reg.serialise())
    with pytest.raises(KeyError):
        registry.class_for("nope")


def test_mode_for_lookup():
    registry = ObjectClassRegistry()
    registry.register(Counter)
    assert registry.mode_for(Counter.TYPE_NAME, "add") is LockMode.WRITE
    assert registry.mode_for(Counter.TYPE_NAME, "get") is LockMode.READ
    assert registry.mode_for(Counter.TYPE_NAME, "whatever") is None


def test_base_class_methods_abstract():
    obj = PersistentObject(Uid("n", 1))
    with pytest.raises(NotImplementedError):
        obj.serialise()


def test_registry_usable_as_decorator():
    registry = ObjectClassRegistry()

    @registry.register
    class Decorated(PersistentObject):
        TYPE_NAME = "tests.Decorated"

        def save_state(self, out):
            out.pack_int(1)

        def restore_state(self, state):
            state.unpack_int()

    assert registry.class_for("tests.Decorated").TYPE_NAME == "tests.Decorated"
