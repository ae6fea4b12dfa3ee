"""Cryptographic substrate for the replication protocols.

The paper's BFT library authenticates most messages with vectors of MACs
(one per receiver) computed with pairwise session keys, and uses public-key
signatures only to establish those keys and for a few protocol messages.
This package reproduces that structure with modern primitives:

- :mod:`~repro.crypto.digest` — SHA-256 digests over canonical encodings.
- :mod:`~repro.crypto.mac` — pairwise session keys and MAC authenticators.
- :mod:`~repro.crypto.keys` — the key registry, including the session-key
  refresh performed during proactive recovery.
- :mod:`~repro.crypto.signatures` — a signature scheme (HMAC under a
  per-node private key checked through the registry; a stand-in for RSA
  with identical protocol-visible behaviour).
"""
