"""DeepLint: the whole-program model and the rules that need it.

- :mod:`repro.analysis.deep.project`   — parsed-module model + resolver
- :mod:`repro.analysis.deep.callgraph` — project-wide call graph
- :mod:`repro.analysis.deep.taint`     — nondeterminism-taint fixpoint
  (DEEP-TAINT)
- :mod:`repro.analysis.deep.conformance` — DEEP-HANDLER, DEEP-COST,
  DEEP-QUORUM

The rules are ordinary :class:`~repro.analysis.engine.Rule` subclasses,
listed with the file-level ones in ``repro.analysis.rules``.  This
``__init__`` imports nothing: the engine imports the model modules, and
the rule modules import the engine.
"""
