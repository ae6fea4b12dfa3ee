"""ProtoLint: protocol-aware static analysis for the BASE reproduction.

The repo's correctness story rests on coding invariants the test suite
cannot see at runtime: no unseeded randomness, no wall-clock reads, no
hash-ordered iteration feeding replicated state, only canonical types on
the wire.  This package enforces them mechanically — an AST rule engine
(:mod:`repro.analysis.engine`), one catalogue of rules
(:mod:`repro.analysis.rules`, per-file and whole-program), rule scopes
in :mod:`repro.analysis.config`, and versioned JSON reports
(:mod:`repro.analysis.report`).  Every finding fails the run.
``python -m repro.analysis`` is the CLI and the CI gate.  See
docs/ANALYSIS.md for the rule catalog.
"""
