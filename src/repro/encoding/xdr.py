"""XDR-style canonical encoder/decoder (subset of RFC-1014).

Supports the types the NFS abstract state and the protocol messages need:
32/64-bit unsigned integers, variable-length opaque data, strings, and
arrays.  All values are big-endian and padded to
4-byte boundaries, per XDR.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Sequence, TypeVar

from repro.errors import EncodingError

T = TypeVar("T")

_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


def _pad(n: int) -> int:
    """Bytes of zero padding needed to reach a 4-byte boundary."""
    return (4 - (n % 4)) % 4


class XdrEncoder:
    """Accumulates XDR-encoded values into a byte buffer."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def pack_uint(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= _U32_MAX:
            raise EncodingError(f"uint out of range: {value!r}")
        self._parts.append(struct.pack(">I", value))
        return self

    def pack_uhyper(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= _U64_MAX:
            raise EncodingError(f"uhyper out of range: {value!r}")
        self._parts.append(struct.pack(">Q", value))
        return self

    def pack_opaque(self, data: bytes) -> "XdrEncoder":
        self.pack_uint(len(data))
        self._parts.append(data + b"\x00" * _pad(len(data)))
        return self

    def pack_string(self, text: str) -> "XdrEncoder":
        return self.pack_opaque(text.encode("utf-8"))

    def pack_array(self, items: Sequence[T],
                   pack_item: Callable[["XdrEncoder", T], None]) -> "XdrEncoder":
        self.pack_uint(len(items))
        for item in items:
            pack_item(self, item)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class XdrDecoder:
    """Decodes values from an XDR byte buffer, tracking position."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return self._pos >= len(self._data)

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise EncodingError(
                f"truncated XDR data: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def unpack_uint(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def unpack_uhyper(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def unpack_fixed_opaque(self, size: int) -> bytes:
        data = self._take(size)
        self._take(_pad(size))
        return data

    def unpack_opaque(self) -> bytes:
        size = self.unpack_uint()
        return self.unpack_fixed_opaque(size)

    def unpack_string(self) -> str:
        return self.unpack_opaque().decode("utf-8")

    def unpack_array(self, unpack_item: Callable[["XdrDecoder"], T]) -> List[T]:
        count = self.unpack_uint()
        if count > self.remaining:
            # Each element is at least one byte on the wire; reject early to
            # avoid huge allocations from corrupt length words.
            raise EncodingError(f"array length {count} exceeds remaining data")
        return [unpack_item(self) for _ in range(count)]
