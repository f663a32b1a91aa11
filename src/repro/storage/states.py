"""Typed serialisation buffers for object states.

Persistent objects save their instance variables into an
:class:`OutputObjectState` and restore them from an
:class:`InputObjectState`, reading values back *in the same order* --
the same discipline as Arjuna's ``save_state``/``restore_state`` pair.
The encoding is a compact self-describing byte format so that type
mismatches are caught as :class:`DeserialisationError` rather than
producing garbage.
"""

from __future__ import annotations

import struct

from repro.storage.errors import DeserialisationError
from repro.storage.uid import Uid

_TAG_INT = b"i"
_TAG_STRING = b"s"


class OutputObjectState:
    """Write-side buffer: pack values, then take :meth:`buffer`."""

    def __init__(self, uid: Uid, type_name: str) -> None:
        self.uid = uid
        self.type_name = type_name
        self._chunks: list[bytes] = []

    def pack_int(self, value: int) -> "OutputObjectState":
        self._chunks.append(_TAG_INT + struct.pack(">q", value))
        return self

    def pack_string(self, value: str) -> "OutputObjectState":
        raw = value.encode("utf-8")
        self._chunks.append(_TAG_STRING + struct.pack(">I", len(raw)) + raw)
        return self

    def buffer(self) -> bytes:
        """The serialised state: a header plus the packed values."""
        header = OutputObjectState._header(self.uid, self.type_name)
        return header + b"".join(self._chunks)

    @staticmethod
    def _header(uid: Uid, type_name: str) -> bytes:
        uid_raw = str(uid).encode("utf-8")
        type_raw = type_name.encode("utf-8")
        return (struct.pack(">I", len(uid_raw)) + uid_raw +
                struct.pack(">I", len(type_raw)) + type_raw)


class InputObjectState:
    """Read-side buffer: unpack values in the order they were packed."""

    def __init__(self, buffer: bytes) -> None:
        self._buffer = buffer
        self._offset = 0
        uid_text = self._read_raw_string()
        self.uid = Uid.parse(uid_text)
        self.type_name = self._read_raw_string()

    # -- primitive reads ----------------------------------------------------

    def unpack_int(self) -> int:
        self._expect_tag(_TAG_INT)
        return struct.unpack_from(">q", self._take(8))[0]

    def unpack_string(self) -> str:
        self._expect_tag(_TAG_STRING)
        return self._read_raw_string()

    # -- internals --------------------------------------------------------

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._buffer):
            raise DeserialisationError(
                f"buffer underrun at offset {self._offset} reading {count} bytes")
        chunk = self._buffer[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def _expect_tag(self, tag: bytes) -> None:
        actual = self._take(1)
        if actual != tag:
            raise DeserialisationError(
                f"expected tag {tag!r} at offset {self._offset - 1}, found {actual!r}")

    def _read_raw_string(self) -> str:
        (length,) = struct.unpack_from(">I", self._take(4))
        return self._take(length).decode("utf-8")
