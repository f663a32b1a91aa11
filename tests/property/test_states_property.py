"""Property-based tests for the serialisation buffers."""

from hypothesis import given, strategies as st

import pytest

from repro.storage import (
    DeserialisationError,
    InputObjectState,
    OutputObjectState,
    Uid,
)

uids = st.builds(Uid,
                 st.text(alphabet=st.characters(min_codepoint=33,
                                                max_codepoint=126),
                         min_size=1, max_size=20),
                 st.integers(min_value=0, max_value=2**31))

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

value_strategies = {
    "int": INT64,
    "string": st.text(max_size=200),
}

tagged_values = st.one_of([
    st.tuples(st.just(tag), strategy)
    for tag, strategy in value_strategies.items()
])


@given(uid=uids, type_name=st.text(max_size=50), values=st.lists(tagged_values,
                                                                 max_size=30))
def test_any_pack_sequence_roundtrips(uid, type_name, values):
    out = OutputObjectState(uid, type_name)
    for tag, value in values:
        getattr(out, f"pack_{tag}")(value)
    state = InputObjectState(out.buffer())
    assert state.uid == uid
    assert state.type_name == type_name
    for tag, value in values:
        recovered = getattr(state, f"unpack_{tag}")()
        assert recovered == value
    with pytest.raises(DeserialisationError):
        state.unpack_int()  # everything packed was read back


@given(uid=uids)
def test_uid_pack_roundtrip(uid):
    """The uid travels in the header; any uid survives it."""
    assert InputObjectState(OutputObjectState(uid, "t").buffer()).uid == uid


@given(values=st.lists(INT64, min_size=1, max_size=50))
def test_buffer_length_deterministic(values):
    def build():
        out = OutputObjectState(Uid("n", 1), "t")
        for v in values:
            out.pack_int(v)
        return out.buffer()
    assert build() == build()
