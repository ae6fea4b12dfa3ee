"""The staleness-contract vocabulary: modes, evidence, edge replies.

Every reply served from the edge names the consistency mode it was
served under, and degraded replies carry *evidence* of how stale the
answer can be:

- ``EVIDENCE_CERTIFICATE`` — a 2f+1 read-only quorum accepted this
  result (the BFT read-only fast path); the result was current at
  ``issued_at``, so its staleness at serve time is bounded by the
  certificate's age.
- ``EVIDENCE_VECTOR`` — a single replica served the result and anchored
  it with its version vector ``(checkpoint_seq, abstract-state digest,
  sim-time lease)`` MAC'd at its last *stable* checkpoint.  One replica
  cannot prove the value is correct (that is what the staleness-contract
  audit replays the abstract-state history for), but the vector makes
  the staleness claim checkable after the fact.

Times ride as integer microseconds end to end (the wire format bans
floats in canonical fields); the ``issued_at`` property converts back to
simulated seconds for lease arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The consistency-mode ladder, strongest first.  The edge only ever
#: degrades one rung at a time and re-promotes to the top.
LINEARIZABLE = "linearizable"
BOUNDED_STALE = "bounded_stale"
LAST_KNOWN_GOOD = "last_known_good"
MODES = (LINEARIZABLE, BOUNDED_STALE, LAST_KNOWN_GOOD)

EVIDENCE_CERTIFICATE = "read_certificate"
EVIDENCE_VECTOR = "checkpoint_vector"
EVIDENCE_KINDS = (EVIDENCE_CERTIFICATE, EVIDENCE_VECTOR)


@dataclass(frozen=True)
class StalenessEvidence:
    """Why the edge believes a cached result is no staler than claimed."""

    kind: str
    #: When the result was provably current (certificate issue time, or
    #: the serving replica's reply time), integer microseconds.
    issued_at_us: int
    #: Replicas vouching: the accepting quorum, or the single server.
    replicas: Tuple[str, ...]
    #: Version vector (EVIDENCE_VECTOR only): the serving replica's last
    #: stable checkpoint and its abstract-state digest at that seq.
    checkpoint_seq: Optional[int] = None
    root_digest: Optional[bytes] = None
    #: When that checkpoint became stable (EVIDENCE_VECTOR only), us.
    stable_at_us: Optional[int] = None

    @property
    def issued_at(self) -> float:
        """Issue time in simulated seconds."""
        return self.issued_at_us / 1_000_000.0


@dataclass(frozen=True)
class EdgeReply:
    """One answer from the edge, flagged with its consistency mode.

    ``staleness_bound`` is the *advertised* contract: ``None`` for
    linearizable replies (no staleness) and for last-known-good replies
    (no bound — the flag itself is the warning); the configured Δ for
    bounded-stale replies.
    """

    result: bytes
    mode: str
    staleness_bound: Optional[float]
    evidence: Optional[StalenessEvidence]

    @property
    def degraded(self) -> bool:
        return self.mode != LINEARIZABLE
