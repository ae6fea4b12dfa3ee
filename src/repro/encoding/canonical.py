"""Injective canonical encoding of simple Python values.

Protocol messages are digested and MACed over a canonical byte string.
This encoder handles the value shapes messages are built from — ints,
bytes, strings, bools, None, floats, and (nested) tuples/lists — with
type tags and length prefixes so the encoding is injective: distinct
values never encode to the same bytes.
"""

from __future__ import annotations

import struct
from typing import Any, Dict

from repro.errors import EncodingError


def canonical(value: Any) -> bytes:
    """Encode ``value`` to canonical bytes."""
    return RECORD_ENCODERS.get(type(value), _encode_one)(value)


def _encode_one(value: Any) -> bytes:
    """The generic encoder: any value but a record, which is refused
    inside another value exactly as the tuple form would refuse it."""
    out: list = []
    _encode(value, out)
    return b"".join(out)


def decanonical(data: bytes) -> Any:
    """Decode canonical bytes back to the value (lists decode as tuples).

    Strict: it succeeds only on bytes that :func:`canonical` produces
    (one byte string per value), and everything else — truncation,
    trailing bytes, an unknown tag, bad UTF-8, an integer not spelled
    exactly as ``b"%d" % value`` — raises :class:`EncodingError`, so bytes
    from a faulty peer reach a handler through no other exception.
    """
    try:
        items, pos = _decode_items(data, 0, 1)
    except (ValueError, struct.error, RecursionError) as exc:
        raise EncodingError(f"malformed canonical data: {exc}") from None
    if pos != len(data):
        raise EncodingError(f"{len(data) - pos} trailing bytes after value")
    return items[0]


_TAG_D, _TAG_I, _TAG_B, _TAG_S, _TAG_L = b"DIBSL"
_SINGLETONS = {ord("N"): None, ord("T"): True, ord("F"): False}
_unpack_length = struct.Struct(">I").unpack_from
_unpack_double = struct.Struct(">d").unpack_from


def _decode_items(data: bytes, pos: int, count: int):
    """Decode ``count`` consecutive values from ``pos``; returns them as
    a tuple with the position after the last.  One loop handles every
    leaf; only a nested list costs another call.  A length or a double
    cut short surfaces as ``struct.error``."""
    end = len(data)
    items: list = []
    append = items.append
    for _ in range(count):
        if pos >= end:
            raise EncodingError("truncated canonical data")
        tag = data[pos]
        if tag == _TAG_S or tag == _TAG_I or tag == _TAG_B:
            start = pos + 5
            pos = start + _unpack_length(data, pos + 1)[0]
            if pos > end:
                raise EncodingError("truncated canonical data")
            body = data[start:pos]
            if tag == _TAG_S:
                append(body.decode())
            elif tag == _TAG_B:
                append(body)
            else:
                value = _SMALL_INTS.get(body)
                if value is None:
                    value = int(body)
                    if b"%d" % value != body:
                        raise EncodingError(f"non-canonical int {body!r}")
                append(value)
        elif tag == _TAG_L:
            value, pos = _decode_items(
                data, pos + 5, _unpack_length(data, pos + 1)[0])
            append(value)
        elif tag in _SINGLETONS:
            append(_SINGLETONS[tag])
            pos += 1
        elif tag == _TAG_D:
            append(_unpack_double(data, pos + 1)[0])
            pos += 9
        else:
            raise EncodingError(f"unknown canonical tag {data[pos:pos + 1]!r}")
    return tuple(items), pos


#: Precomputed encodings for the leaf values that dominate protocol
#: messages: small non-negative ints (sequence numbers, views, request
#: ids) and short recurring strings (node ids, message kinds, op names).
#: Pure caches of the existing format — the wire bytes are unchanged.
_INT_CACHE = tuple(
    b"I" + len(body).to_bytes(4, "big") + body
    for body in (str(i).encode("ascii") for i in range(4096))
)
_SMALL_INTS = {entry[5:]: i for i, entry in enumerate(_INT_CACHE)}
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
            body = b"%d" % value
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
                    body = b"%d" % item
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
        body = b"%d" % value
        out.append(b"I" + len(body).to_bytes(4, "big") + body)
    elif isinstance(value, float):
        out.append(b"D" + struct.pack(">d", value))
    elif isinstance(value, bytes):
        out.append(b"B" + len(value).to_bytes(4, "big") + value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(b"S" + len(body).to_bytes(4, "big") + body)
    elif isinstance(value, (tuple, list)) and not hasattr(value, "_fields"):
        out.append(b"L" + len(value).to_bytes(4, "big"))
        for item in value:
            _encode(item, out)
    else:   # named tuples too: a value record travels as its ``encode()``
        raise EncodingError(f"cannot canonically encode {type(value).__name__}")


# -- record encoders ------------------------------------------------------------
#
# A record is an object whose canonical form is the flat tuple
# ``(head, obj.a, obj.b, ...)`` with every field's type known in advance
# (the protocol messages that hold only scalars).  Its encoder is one
# expression: no tuple is built and no type is dispatched on.  A field
# holding some other type than declared still encodes exactly as the
# tuple would, through ``_encode_one``.

#: Source of one field's bytes, by declared type; ``{0}`` is the attribute.
_FIELD_SOURCE = {
    int: "_INT_CACHE[v] if type(v := m.{0}) is int and 0 <= v < 4096 "
         "else _encode_one(v)",
    str: "type(v := m.{0}) is str and _STR_CACHE.get(v) or _encode_one(v)",
    bytes: "b'B' + len(v).to_bytes(4, 'big') + v if type(v := m.{0}) is bytes "
           "else b'N' if v is None else _encode_one(v)",
    bool: "b'T' if (v := m.{0}) is True else b'F' if v is False "
          "else _encode_one(v)",
}
RECORD_FIELD_TYPES = frozenset(_FIELD_SOURCE)  # what a field may declare
#: Exact type -> its straight-line encoder; membership is what makes a
#: type a record (``Message.body`` asks it, nothing else records it).
RECORD_ENCODERS: dict = {}


def register_record(cls: type, head: str, fields: Dict[str, type]) -> None:
    """Make ``canonical(obj)``, for ``obj`` of exactly ``cls``, return
    ``canonical((head,) + tuple(getattr(obj, name) for name in fields))``
    from a straight-line encoder.  ``fields`` maps attribute names, in
    order, to ``int``, ``str``, ``bytes`` (``None`` allowed) or ``bool``."""
    prefix = (b"L" + (len(fields) + 1).to_bytes(4, "big")
              + _encode_one(head))
    parts = ", ".join(f"({_FIELD_SOURCE[kind].format(name)})"
                      for name, kind in fields.items())
    RECORD_ENCODERS[cls] = eval(
        f"lambda m: b''.join((prefix, {parts}))",
        {"prefix": prefix, "_INT_CACHE": _INT_CACHE,
         "_STR_CACHE": _STR_CACHE, "_encode_one": _encode_one})
