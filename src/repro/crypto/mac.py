"""Message authentication codes and BFT-style authenticators.

BFT's key performance trick is replacing signatures with *authenticators*:
a vector with one MAC per receiving replica, computed with pairwise
session keys.  Verification touches only the receiver's own entry.

Two optimizations from the BFT implementation (inherited by BASE) live
here:

- **MAC over digest.**  Authenticators MAC the 32-byte SHA-256 digest of
  the message, not the message itself.  The sender hashes the body once
  (the digest is cached on the message) and then computes one cheap
  fixed-size MAC per receiver, so authenticator cost is independent of
  body size — a piggybacked pre-prepare batch is hashed once, not once
  per receiver.
- **One keyed primitive, keyed once.**  A tag is BLAKE2b keyed with the
  pairwise session key, its output sized to :data:`MAC_SIZE` (the role
  UMAC32 played in the original library: a fast keyed hash over a short
  input).  Keying costs a compression, and session keys live for a whole
  key epoch, so the :class:`~repro.crypto.keys.KeyRegistry` keeps one
  keyed state per live session key and every tag afterwards is
  ``copy()``, one ``update`` over the 32-byte digest, ``digest()`` —
  three C calls, no truncation.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import TYPE_CHECKING, Dict, Iterable

if TYPE_CHECKING:
    from repro.crypto.keys import KeyRegistry

MAC_SIZE = 16  # short tags, mirroring BFT's UMAC


def keyed_state(key: bytes):
    """The MAC primitive: BLAKE2b keyed with ``key``, before any data.

    ``copy()`` the result, ``update`` it with the data and take
    ``digest()`` for a :data:`MAC_SIZE`-byte tag; the original stays
    reusable for the next message under the same key.
    """
    if len(key) > hashlib.blake2b.MAX_KEY_SIZE:
        key = hashlib.blake2b(key).digest()
    return hashlib.blake2b(key=key, digest_size=MAC_SIZE)


def compute_mac(key: bytes, data: bytes) -> bytes:
    """MAC of ``data`` under ``key``: the tag an :class:`Authenticator`
    entry carries when ``key`` is the pair's session key."""
    h = keyed_state(key)
    h.update(data)
    return h.digest()


def verify_mac(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(compute_mac(key, data), tag)


class Authenticator:
    """A vector of MACs over a message *digest*, one per destination.

    Callers pass the 32-byte ``msg.digest()`` — never the full body —
    so creating an authenticator for ``n`` receivers costs one body hash
    (cached on the message) plus ``n`` constant-size MACs.
    """

    __slots__ = ("sender", "tags")

    def __init__(self, sender: object, tags: Dict[object, bytes]):
        self.sender = sender
        self.tags = tags

    @classmethod
    def create(cls, registry: KeyRegistry, sender: object,
               receivers: Iterable[object], digest: bytes) -> "Authenticator":
        # Read the registry's state table directly: one dict lookup per
        # receiver, falling back to ``mac_state`` only to key a new pair.
        states = registry.mac_states.get(sender)
        if states is None:
            states = registry.mac_states[sender] = {}
        tags = {}
        for r in receivers:
            state = states.get(r)
            if state is None:
                state = registry.mac_state(sender, r)
            h = state.copy()
            h.update(digest)
            tags[r] = h.digest()
        return cls(sender, tags)

    @classmethod
    def forged(cls, sender: object, receivers: Iterable[object]) -> "Authenticator":
        """An authenticator with garbage tags, for Byzantine-fault tests."""
        return cls(sender, {r: b"\x00" * MAC_SIZE for r in receivers})

    def verify(self, registry: KeyRegistry, receiver: object,
               digest: bytes) -> bool:
        tag = self.tags.get(receiver)
        if tag is None:
            return False
        try:
            state = registry.mac_states[self.sender][receiver]
        except KeyError:
            state = registry.mac_state(self.sender, receiver)
        h = state.copy()
        h.update(digest)
        return hmac.compare_digest(h.digest(), tag)

    def wire_size(self) -> int:
        return len(self.tags) * MAC_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return f"Authenticator(sender={self.sender!r}, n={len(self.tags)})"
