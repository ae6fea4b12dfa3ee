"""EdgeTier: bounded-staleness edge reads with a graceful-degradation
ladder in front of the replicated core.  See docs/EDGE.md."""

from repro.edge.breaker import (CLOSED, HALF_OPEN, OPEN, STATES,
                                CircuitBreaker)
from repro.edge.cache import CacheEntry, EdgeCache, ReadLease
from repro.edge.evidence import (BOUNDED_STALE, EVIDENCE_CERTIFICATE,
                                 EVIDENCE_KINDS, EVIDENCE_VECTOR,
                                 LAST_KNOWN_GOOD, LINEARIZABLE, MODES,
                                 EdgeReply, StalenessEvidence)
from repro.edge.tier import EdgeTier, EdgeUnavailable

__all__ = [
    "BOUNDED_STALE", "CLOSED", "CacheEntry", "CircuitBreaker", "EdgeCache",
    "EdgeReply", "EdgeTier", "EdgeUnavailable",
    "EVIDENCE_CERTIFICATE", "EVIDENCE_KINDS", "EVIDENCE_VECTOR", "HALF_OPEN",
    "LAST_KNOWN_GOOD", "LINEARIZABLE", "MODES", "OPEN", "ReadLease",
    "STATES", "StalenessEvidence",
]
