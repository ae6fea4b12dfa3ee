"""Scope configuration for the ProtoLint rule set.

Rules consult this to decide where they apply.  Paths are relative to
the ``repro`` package root (``bft/replica.py``), matching the paths the
engine puts in findings.  The defaults encode this repo's layout; tests
construct narrower configs to point rules at fixture trees.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import FrozenSet, Optional


def _top(rel: str) -> str:
    """Top-level package of a finding path (``bft/replica.py`` -> ``bft``)."""
    return rel.split("/", 1)[0]


#: Packages *outside* the simulation: orchestration, analysis, and
#: reporting code that legitimately reads the wall clock or the
#: filesystem.  Everything else under ``src/repro`` is protocol scope by
#: default — a freshly created package is lint-covered unless someone
#: deliberately excludes it here.
PROTOCOL_EXCLUDED = frozenset({"analysis", "faultlab", "harness"})


def discover_packages(root: Optional[str] = None,
                      excluded: FrozenSet[str] = PROTOCOL_EXCLUDED,
                      ) -> FrozenSet[str]:
    """Every package under the ``repro`` root minus the exclude list.

    ``root`` defaults to the directory holding this file's parent (the
    installed ``repro`` package), so new subsystems join the protocol
    scope the moment they gain an ``__init__.py`` — scope rot was how
    earlier packages silently escaped the linter.
    """
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = []
    for name in sorted(os.listdir(root)):
        if name in excluded or name.startswith(("_", ".")):
            continue
        path = os.path.join(root, name)
        if os.path.isdir(path) and \
                os.path.isfile(os.path.join(path, "__init__.py")):
            found.append(name)
    return frozenset(found)


#: Packages whose code runs *inside* the simulation: protocol logic,
#: replicated state, and the conformance wrappers.  Nothing here may
#: touch real time, threads, sockets, or the filesystem — the simulator
#: is the only source of time and I/O.  Discovered, not enumerated: see
#: :func:`discover_packages`.
PROTOCOL_PACKAGES = discover_packages()

#: Packages whose iteration order feeds replicated state or replay:
#: the BFT protocol itself, the simulator, the edge tier, FaultLab, and
#: the abstract state library.  Hash-ordered iteration here breaks
#: (scenario, seed) reproducibility.
REPLAY_PACKAGES = frozenset({"base", "bft", "edge", "faultlab", "sim"})

#: Modules allowed to call ``time.perf_counter``: wall-clock *reporting*
#: only — they measure wall time about a run, never feed it back in.
PERF_COUNTER_ALLOWED = frozenset({"faultlab/explorer.py"})

# -- nondeterminism sources (DET-RNG, DET-CLOCK, DEEP-TAINT) ------------------

#: Calls through the module-level (shared, unseeded) random API.
GLOBAL_RNG_CALLS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "uniform", "sample", "getrandbits", "gauss", "betavariate",
    "expovariate", "normalvariate", "triangular",
})

#: (module, attr) wall-clock and entropy reads that break replay outright.
WALL_CLOCK_READS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
})

DATETIME_READS = frozenset({"now", "utcnow", "today"})

# -- deep-pass anchors ---------------------------------------------------------
# Dotted names the interprocedural passes resolve against.  They name
# *this repo's* agreement-critical surfaces; fixture trees re-declare
# classes under the same dotted roots, so the anchors work unchanged.

#: Root of the wire-message hierarchy: every subclass with a ``kind``
#: class attribute is a wire payload (constructor args are a taint sink,
#: and its kind must have a ``handle_<kind>`` handler somewhere).
MESSAGE_ROOT = "repro.bft.messages.Message"

#: Root of the protocol-node hierarchy (``handle_<kind>`` dispatch).
NODE_ROOT = "repro.sim.node.Node"

#: Canonical-encoding sink: tainted payloads break replica agreement.
CANONICAL_SINKS = frozenset({"repro.encoding.canonical.canonical"})

#: Digest sink: everything digested feeds a MAC, certificate, or
#: checkpoint identity.
DIGEST_SINKS = frozenset({"repro.crypto.digest.digest"})

#: Abstract-state mutation sinks (dotted, plus bare method names for
#: calls the resolver cannot type) — gated on reachability from a
#: message handler.
STATE_SINKS = frozenset({
    "repro.base.state.AbstractStateManager.modify",
    "repro.base.state.AbstractStateManager.apply_fetched",
    "repro.base.upcalls.Upcalls.put_objs",
})
STATE_SINK_NAMES = frozenset({"modify", "apply_fetched", "put_objs"})

#: Packages whose ``handle_*`` methods must charge the CostModel.
COST_PACKAGES = frozenset({"bft"})

#: Files exempt from DEEP-QUORUM: where the helpers themselves live.
QUORUM_EXEMPT = frozenset({"bft/config.py"})

#: Packages where a ``len(x) >= <literal>`` compare is treated as a
#: hardcoded quorum threshold.  Only where votes are actually counted —
#: elsewhere that shape is almost always a tuple-arity check on a
#: decoded op, not quorum logic.  Inline ``2f+1`` / ``f+1`` arithmetic
#: is flagged in the whole protocol scope regardless.
QUORUM_LEN_PACKAGES = frozenset({"bft", "edge"})


@dataclass(frozen=True)
class AnalysisConfig:
    protocol_packages: FrozenSet[str] = PROTOCOL_PACKAGES
    replay_packages: FrozenSet[str] = REPLAY_PACKAGES
    perf_counter_allowed: FrozenSet[str] = PERF_COUNTER_ALLOWED
    cost_packages: FrozenSet[str] = COST_PACKAGES
    quorum_exempt: FrozenSet[str] = QUORUM_EXEMPT
    quorum_len_packages: FrozenSet[str] = QUORUM_LEN_PACKAGES

    def in_protocol(self, rel: str) -> bool:
        return ("*" in self.protocol_packages
                or _top(rel) in self.protocol_packages)

    def in_replay(self, rel: str) -> bool:
        return ("*" in self.replay_packages
                or _top(rel) in self.replay_packages)

    def perf_counter_ok(self, rel: str) -> bool:
        return rel in self.perf_counter_allowed

    def in_cost_scope(self, rel: str) -> bool:
        return "*" in self.cost_packages or _top(rel) in self.cost_packages

    def quorum_checked(self, rel: str) -> bool:
        return self.in_protocol(rel) and rel not in self.quorum_exempt

    def quorum_len_checked(self, rel: str) -> bool:
        return self.quorum_checked(rel) and (
            "*" in self.quorum_len_packages
            or _top(rel) in self.quorum_len_packages)


#: Config used by tests pointing rules at fixture files and trees, which
#: live under arbitrary paths: every scope check passes (``"*"``
#: wildcard) and no file is exempt, so each rule exercises its logic
#: regardless of the fixture's path.
EVERYWHERE = AnalysisConfig(
    protocol_packages=frozenset({"*"}),
    replay_packages=frozenset({"*"}),
    perf_counter_allowed=frozenset(),
    cost_packages=frozenset({"*"}),
    quorum_exempt=frozenset(),
    quorum_len_packages=frozenset({"*"}),
)
