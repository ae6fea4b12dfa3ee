"""The deep gate: ``src/repro`` stays DeepLint-clean.

Mirrors the file-level gate in ``test_analysis_engine.py``: the deep
passes run over the real tree, and any finding fails (fix the code or
add a reasoned inline suppression where it occurs).
"""

from pathlib import Path

from repro.analysis.deep.driver import run_deep

SRC = Path(__file__).parent.parent / "src" / "repro"


def test_src_tree_is_deeplint_clean():
    findings = run_deep([SRC])
    assert not findings, (
        "deep findings (fix them or suppress with a reasoned "
        "'# protolint: disable=' comment):\n"
        + "\n".join(f.render() + "\n" + "\n".join(
            f"    {hop}" for hop in f.chain) for f in findings))
