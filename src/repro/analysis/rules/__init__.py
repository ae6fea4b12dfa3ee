"""ProtoLint rule registry: the one catalogue of every rule.

``all_rules()`` returns one instance of every rule, sorted by id; the
CLI and tests select subsets by id from here.  Adding a rule = write the
class, list it in ``_RULE_CLASSES``, document it in docs/ANALYSIS.md,
and add bad/ok fixtures under tests/analysis_fixtures/.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.deep.conformance import (CostRule, HandlerRule,
                                             QuorumRule)
from repro.analysis.deep.taint import TaintRule
from repro.analysis.engine import Rule
from repro.analysis.rules.determinism import (PerfCounterRule,
                                              UnseededRandomRule,
                                              WallClockRule)
from repro.analysis.rules.replay import (IdKeyRule, MutableDefaultRule,
                                         UnorderedIterationRule)
from repro.analysis.rules.simsafety import RealConcurrencyRule, RealIORule
from repro.analysis.rules.wire import BareExceptRule, FloatPayloadRule

_RULE_CLASSES = (
    UnseededRandomRule,     # DET-RNG
    WallClockRule,          # DET-CLOCK
    PerfCounterRule,        # DET-PERF
    RealConcurrencyRule,    # SIM-BLOCK
    RealIORule,             # SIM-IO
    UnorderedIterationRule,  # RPL-SETITER
    IdKeyRule,              # RPL-IDKEY
    MutableDefaultRule,     # RPL-MUTDEF
    FloatPayloadRule,       # WIRE-FLOAT
    BareExceptRule,         # WIRE-EXCEPT
    QuorumRule,             # DEEP-QUORUM
    TaintRule,              # DEEP-TAINT (whole program)
    HandlerRule,            # DEEP-HANDLER (whole program)
    CostRule,               # DEEP-COST (whole program)
)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    return sorted((cls() for cls in _RULE_CLASSES),
                  key=lambda rule: rule.rule_id)


def select_rules(ids: Sequence[str]) -> List[Rule]:
    """Rules for the given ids; unknown ids raise ValueError."""
    table = {rule.rule_id: rule for rule in all_rules()}
    unknown = sorted(set(ids) - set(table))
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(table))})")
    return [table[rule_id] for rule_id in sorted(set(ids))]
