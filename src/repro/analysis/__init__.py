"""ProtoLint: protocol-aware static analysis for the BASE reproduction.

The repo's correctness story rests on coding invariants the test suite
cannot see at runtime: no unseeded randomness, no wall-clock reads, no
hash-ordered iteration feeding replicated state, only canonical types on
the wire.  This package enforces them mechanically — an AST rule engine
(:mod:`repro.analysis.engine`), one catalogue of rules
(:mod:`repro.analysis.rules`, per-file and whole-program), inline
suppressions that require a reason, and schema-validated JSON reports
(:mod:`repro.analysis.report`).  ``python -m repro.analysis`` is the CLI
and the CI gate.  See docs/ANALYSIS.md for the rule catalog.
"""

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import (SUPPRESS_RULE_ID, Engine, FileContext,
                                   Finding, Rule)
from repro.analysis.rules import all_rules, select_rules

__all__ = [
    "AnalysisConfig", "Engine", "FileContext", "Finding", "Rule",
    "SUPPRESS_RULE_ID", "all_rules", "select_rules",
]
