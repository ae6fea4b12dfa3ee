"""Experiment harness: cluster construction, cost models, fault injection,
reporting, and the code-complexity counter used by §4.3."""
