"""CPU cost model hooks for protocol nodes.

Protocol correctness never depends on these: with the default (all-zero)
model the simulation runs in pure event time.  The benchmark harness
installs calibrated models (see :mod:`repro.harness.costs`) so that MAC
computation, digesting, service execution, and disk activity consume
simulated CPU time, serialized per node.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Per-operation CPU charges, in simulated seconds."""

    mac: float = 0.0               # one MAC over digest-sized (32 B) input
    signature: float = 0.0         # generate or verify one signature
    digest_fixed: float = 0.0      # fixed cost of one digest
    digest_per_byte: float = 0.0   # plus per byte digested

    def digest(self, nbytes: int) -> float:
        return self.digest_fixed + self.digest_per_byte * nbytes

    # Authenticators MAC the 32-byte message digest, never the body: the
    # sender hashes the body once and pays one constant-size MAC per
    # receiver, so the charge is independent of batch/body size.  Both
    # run once per message per node, so they spell ``digest()`` out
    # rather than call it — same operands, same association, same float.

    def auth_create(self, n: int, body_bytes: int) -> float:
        """Create an authenticator for ``n`` receivers: digest the body
        once, then ``n`` MACs over the digest."""
        return ((self.digest_fixed + self.digest_per_byte * body_bytes)
                + self.mac * n)

    def auth_verify(self, body_bytes: int) -> float:
        """Verify one authenticator entry: digest the received body once,
        then check a single MAC over the digest."""
        return ((self.digest_fixed + self.digest_per_byte * body_bytes)
                + self.mac)


ZERO_COSTS = CostModel()
