"""Key registry: per-node key pairs and pairwise session keys.

In the real system each node holds a private key, distributes session
keys encrypted under receivers' public keys, and refreshes session keys
during proactive recovery so that an attacker who stole old keys cannot
impersonate a recovered replica.  In this simulation the registry is the
trusted holder of all key material; nodes interact with it only through
the same operations the real protocol provides (lookup of an outgoing
session key, verification of an incoming MAC, key refresh).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Tuple

from repro.crypto.mac import keyed_state


class KeyRegistry:
    """Holds private keys and pairwise session keys for a set of nodes."""

    def __init__(self, seed: bytes = b"repro-base") -> None:
        self._seed = seed
        self._private: Dict[object, bytes] = {}
        self._session: Dict[Tuple[object, object], bytes] = {}
        self._epoch: Dict[object, int] = {}
        #: Keyed MAC states (:func:`repro.crypto.mac.keyed_state`), one
        #: per live session key, as ``sender -> receiver -> state``.
        #: The only keyed-state cache there is: authenticators read it
        #: directly, :meth:`mac_state` fills it, and
        #: :meth:`refresh_session_keys` evicts state with key.
        self.mac_states: Dict[object, Dict[object, object]] = {}

    # -- node enrollment -----------------------------------------------------

    def enroll(self, node_id: object) -> None:
        """Create a key pair for ``node_id`` (idempotent)."""
        if node_id not in self._private:
            self._private[node_id] = self._derive(b"priv", repr(node_id).encode(), b"0")
            self._epoch[node_id] = 0

    def private_key(self, node_id: object) -> bytes:
        self.enroll(node_id)
        return self._private[node_id]

    def epoch(self, node_id: object) -> int:
        """Session-key epoch; bumped by :meth:`refresh_session_keys`."""
        self.enroll(node_id)
        return self._epoch[node_id]

    # -- session keys ----------------------------------------------------------

    def session_key(self, sender: object, receiver: object) -> bytes:
        """Key the ``sender`` uses to MAC messages for ``receiver``.

        Keys are directional, as in BFT: the receiver chooses the key it
        will use to authenticate traffic *from* each sender.
        """
        self.enroll(sender)
        self.enroll(receiver)
        pair = (sender, receiver)
        if pair not in self._session:
            self._session[pair] = self._derive(
                b"sess", repr(pair).encode(),
                str(self._epoch[receiver]).encode())
        return self._session[pair]

    def mac_state(self, sender: object, receiver: object):
        """Keyed MAC state for the pair's session key (cached).

        Callers must ``.copy()`` before updating.  The cache lives and
        dies with the session key: :meth:`refresh_session_keys` evicts
        both together.
        """
        states = self.mac_states.setdefault(sender, {})
        state = states.get(receiver)
        if state is None:
            state = states[receiver] = keyed_state(
                self.session_key(sender, receiver))
        return state

    def refresh_session_keys(self, receiver: object) -> None:
        """Discard all session keys directed at ``receiver``.

        Called when a replica recovers: it picks fresh keys so that MACs
        produced with stolen old keys no longer verify.
        """
        self.enroll(receiver)
        self._epoch[receiver] += 1
        for pair in [p for p in self._session if p[1] == receiver]:
            del self._session[pair]
        for states in self.mac_states.values():
            states.pop(receiver, None)

    # -- internals ----------------------------------------------------------

    def _derive(self, *parts: bytes) -> bytes:
        h = hmac.new(self._seed, digestmod=hashlib.sha256)
        for part in parts:
            h.update(part)
            h.update(b"|")
        return h.digest()
