"""The deep gate: ``src/repro`` stays clean under the whole-program rules.

The four DEEP-* rules sit in the one catalogue beside the per-file
rules; this gate runs just them over the real tree, so a deep finding
is named as such.  Any finding fails: fix the code, or change the rule's
scope in ``analysis/config.py``.
"""

from pathlib import Path

from repro.analysis.engine import Engine
from repro.analysis.rules import select_rules

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DEEP_RULE_IDS = ("DEEP-COST", "DEEP-HANDLER", "DEEP-QUORUM", "DEEP-TAINT")


def test_src_tree_is_deeplint_clean():
    findings = Engine(select_rules(DEEP_RULE_IDS)).run(SRC)
    assert not findings, (
        "deep findings (fix the code, or change the rule's scope in "
        "analysis/config.py):\n"
        + "\n".join(f.render() + "".join(f"\n    {hop}" for hop in f.chain)
                    for f in findings))
