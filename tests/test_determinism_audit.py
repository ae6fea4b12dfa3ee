"""Repo-wide audit: no unseeded randomness or wall-clock reads in src/.

Every simulation outcome must be a pure function of (scenario, seed) —
that is what makes FaultLab's replay command and the shrinker sound.
The checks live in the ProtoLint catalogue (rules DET-RNG / DET-CLOCK /
DET-PERF); this gate runs just those over ``src/repro`` and expects
silence.  That the rules catch planted offenders is checked beside the
other per-rule fixtures in ``tests/test_analysis_rules.py``.
"""

from pathlib import Path

from repro.analysis.engine import Engine
from repro.analysis.rules import select_rules

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DETERMINISM_RULE_IDS = ("DET-CLOCK", "DET-PERF", "DET-RNG")


def test_src_tree_is_deterministic():
    findings = Engine(select_rules(DETERMINISM_RULE_IDS)).run(SRC)
    assert findings == [], "\n".join(f.render() for f in findings)
