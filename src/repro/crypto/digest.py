"""SHA-256 digests over canonical byte encodings."""

from __future__ import annotations

from hashlib import sha256
from typing import Iterable

DIGEST_SIZE = 32

NULL_DIGEST = b"\x00" * DIGEST_SIZE


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return sha256(data).digest()


def digest_many(parts: Iterable[bytes]) -> bytes:
    """SHA-256 over the concatenation of ``parts`` without copying."""
    h = sha256()
    for part in parts:
        h.update(part)
    return h.digest()
