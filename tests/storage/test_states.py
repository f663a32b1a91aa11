"""Tests for the typed serialisation buffers."""

import pytest

from repro.storage import DeserialisationError, InputObjectState, OutputObjectState, Uid


def test_header_roundtrip():
    out = OutputObjectState(Uid("node", 7), "my.Class")
    state = InputObjectState(out.buffer())
    assert state.uid == Uid("node", 7)
    assert state.type_name == "my.Class"
    with pytest.raises(DeserialisationError):
        state.unpack_int()  # the header is all there is


def test_int_roundtrip_including_negatives():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_int(0).pack_int(-5).pack_int(2**62)
    state = InputObjectState(out.buffer())
    assert state.unpack_int() == 0
    assert state.unpack_int() == -5
    assert state.unpack_int() == 2**62


def test_string_roundtrip_unicode():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_string("héllo wörld ✓").pack_string("")
    state = InputObjectState(out.buffer())
    assert state.unpack_string() == "héllo wörld ✓"
    assert state.unpack_string() == ""


def test_mixed_sequence_in_order():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_int(1).pack_string("two").pack_int(3)
    state = InputObjectState(out.buffer())
    assert state.unpack_int() == 1
    assert state.unpack_string() == "two"
    assert state.unpack_int() == 3
    with pytest.raises(DeserialisationError):
        state.unpack_int()  # everything packed was read back


def test_type_mismatch_raises():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_int(5)
    state = InputObjectState(out.buffer())
    with pytest.raises(DeserialisationError, match="expected tag"):
        state.unpack_string()


def test_underrun_raises():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_int(5)
    state = InputObjectState(out.buffer())
    state.unpack_int()
    with pytest.raises(DeserialisationError):
        state.unpack_int()


def test_truncated_buffer_raises():
    out = OutputObjectState(Uid("n", 1), "t")
    out.pack_string("hello")
    buffer = out.buffer()[:-3]
    state = InputObjectState(buffer)
    with pytest.raises(DeserialisationError):
        state.unpack_string()
