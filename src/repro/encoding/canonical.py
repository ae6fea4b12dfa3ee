"""Injective canonical encoding of simple Python values.

Protocol messages are digested and MACed over a canonical byte string.
This encoder handles the value shapes messages are built from — ints,
bytes, strings, bools, None, floats, and (nested) tuples/lists — with
type tags and length prefixes so the encoding is injective: distinct
values never encode to the same bytes.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import EncodingError


def canonical(value: Any) -> bytes:
    """Encode ``value`` to canonical bytes."""
    out: list = []
    _encode(value, out)
    return b"".join(out)


def decanonical(data: bytes) -> Any:
    """Decode canonical bytes back to the value (lists decode as tuples)."""
    value, pos = _decode(data, 0)
    if pos != len(data):
        raise EncodingError(f"{len(data) - pos} trailing bytes after value")
    return value


def _decode(data: bytes, pos: int):
    if pos >= len(data):
        raise EncodingError("truncated canonical data")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"D":
        _check(data, pos, 8)
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag in (b"I", b"B", b"S"):
        _check(data, pos, 4)
        length = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        _check(data, pos, length)
        body = data[pos:pos + length]
        pos += length
        if tag == b"I":
            return int(body.decode("ascii")), pos
        if tag == b"B":
            return body, pos
        return body.decode("utf-8"), pos
    if tag == b"L":
        _check(data, pos, 4)
        count = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos)
            items.append(item)
        return tuple(items), pos
    raise EncodingError(f"unknown canonical tag {tag!r}")


def _check(data: bytes, pos: int, need: int) -> None:
    if pos + need > len(data):
        raise EncodingError("truncated canonical data")


#: Precomputed encodings for the leaf values that dominate protocol
#: messages: small non-negative ints (sequence numbers, views, request
#: ids) and short recurring strings (node ids, message kinds, op names).
#: Pure caches of the existing format — the wire bytes are unchanged.
_INT_CACHE = tuple(
    b"I" + len(body).to_bytes(4, "big") + body
    for body in (str(i).encode("ascii") for i in range(4096))
)
_STR_CACHE: dict = {}
_STR_CACHE_MAX = 4096


def _encode(value: Any, out: list) -> None:
    # Hot path: exact-type dispatch (``type(...) is``) beats the
    # isinstance chain, and ``int.to_bytes`` beats ``struct.pack`` for
    # the big-endian length prefixes.  The wire format is unchanged.
    t = type(value)
    if t is bytes:
        out.append(b"B" + len(value).to_bytes(4, "big") + value)
    elif t is str:
        entry = _STR_CACHE.get(value)
        if entry is None:
            body = value.encode("utf-8")
            entry = b"S" + len(body).to_bytes(4, "big") + body
            if len(value) <= 64 and len(_STR_CACHE) < _STR_CACHE_MAX:
                _STR_CACHE[value] = entry
        out.append(entry)
    elif t is int:
        if 0 <= value < 4096:
            out.append(_INT_CACHE[value])
        else:
            body = str(value).encode("ascii")
            out.append(b"I" + len(body).to_bytes(4, "big") + body)
    elif t is tuple or t is list:
        out.append(b"L" + len(value).to_bytes(4, "big"))
        # Inline the leaf types to skip a recursive call per item
        # (message bodies are shallow tuples of strs/ints/bytes, and a
        # REPLY carries an optional result and two flags).
        for item in value:
            it = type(item)
            if it is str:
                entry = _STR_CACHE.get(item)
                if entry is None:
                    body = item.encode("utf-8")
                    entry = b"S" + len(body).to_bytes(4, "big") + body
                    if len(item) <= 64 and len(_STR_CACHE) < _STR_CACHE_MAX:
                        _STR_CACHE[item] = entry
                out.append(entry)
            elif it is int:
                if 0 <= item < 4096:
                    out.append(_INT_CACHE[item])
                else:
                    body = str(item).encode("ascii")
                    out.append(b"I" + len(body).to_bytes(4, "big") + body)
            elif it is bytes:
                out.append(b"B" + len(item).to_bytes(4, "big") + item)
            elif item is None:
                out.append(b"N")
            elif item is True:
                out.append(b"T")
            elif item is False:
                out.append(b"F")
            else:
                _encode(item, out)
    elif value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif t is float:
        out.append(b"D" + struct.pack(">d", value))
    else:
        _encode_slow(value, out)


def _encode_slow(value: Any, out: list) -> None:
    """Subclasses of the supported types (exact-type dispatch missed)."""
    if isinstance(value, bool):
        out.append(b"T" if value else b"F")
    elif isinstance(value, int):
        body = str(value).encode("ascii")
        out.append(b"I" + len(body).to_bytes(4, "big") + body)
    elif isinstance(value, float):
        out.append(b"D" + struct.pack(">d", value))
    elif isinstance(value, bytes):
        out.append(b"B" + len(value).to_bytes(4, "big") + value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(b"S" + len(body).to_bytes(4, "big") + body)
    elif isinstance(value, (tuple, list)):
        out.append(b"L" + len(value).to_bytes(4, "big"))
        for item in value:
            _encode(item, out)
    else:
        raise EncodingError(f"cannot canonically encode {type(value).__name__}")
