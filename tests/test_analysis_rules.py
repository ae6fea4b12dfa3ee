"""Per-rule golden-fixture tests for the ProtoLint rule library.

Every file-level rule has a ``*_bad.py`` fixture (must fire, with the
expected finding count) and a ``*_ok.py`` fixture (must stay silent)
under ``tests/analysis_fixtures/``; the DeepLint rules have fixture
trees under ``tests/analysis_fixtures/deep/`` (``test_analysis_deep``).
Fixtures are checked under a protocol path (``bft/...``) so the rules'
real scoping is exercised, not bypassed.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import Engine
from repro.analysis.rules import all_rules, select_rules

from tests.test_analysis_deep import CASES as DEEP_CASES

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: rule id -> (fixture stem, expected findings in bad fixture).
CASES = {
    "DET-RNG": ("det_rng", 4),
    "DET-CLOCK": ("det_clock", 5),
    "DET-PERF": ("det_perf", 2),
    "SIM-BLOCK": ("sim_block", 4),
    "SIM-IO": ("sim_io", 2),
    "RPL-SETITER": ("rpl_setiter", 4),
    "RPL-IDKEY": ("rpl_idkey", 1),
    "RPL-MUTDEF": ("rpl_mutdef", 4),
    "WIRE-FLOAT": ("wire_float", 5),
    "WIRE-EXCEPT": ("wire_except", 2),
}

#: Checked under a protocol/replay-scoped path so scope rules engage.
PROTOCOL_REL = "bft/fixture.py"


def _check(rule_id: str, path: Path, rel: str):
    engine = Engine(select_rules([rule_id]))
    return engine.check_file(path, rel=rel)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    stem, expected = CASES[rule_id]
    findings = _check(rule_id, FIXTURES / f"{stem}_bad.py", PROTOCOL_REL)
    assert len(findings) == expected, \
        f"{rule_id}: expected {expected} findings, got " \
        f"{[f.render() for f in findings]}"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.path == PROTOCOL_REL and f.line >= 1 for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_silent_on_ok_fixture(rule_id):
    stem, _ = CASES[rule_id]
    findings = _check(rule_id, FIXTURES / f"{stem}_ok.py", PROTOCOL_REL)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_is_clean_python(rule_id):
    """Fixtures must be real, parseable Python (the engine reports
    PL-SYNTAX findings for anything else, which would skew counts)."""
    stem, _ = CASES[rule_id]
    for suffix in ("bad", "ok"):
        findings = _check(rule_id, FIXTURES / f"{stem}_{suffix}.py",
                          PROTOCOL_REL)
        assert not any(f.rule == "PL-SYNTAX" for f in findings)


def test_every_registered_rule_has_fixtures():
    deep = {rule_id for rule_id, _ in DEEP_CASES.values()}
    assert not deep & set(CASES)
    assert {r.rule_id for r in all_rules()} == set(CASES) | deep


def test_the_determinism_rules_catch_planted_offenders():
    engine = Engine(select_rules(["DET-RNG", "DET-CLOCK", "DET-PERF"]))
    by_fixture = {
        "det_rng_bad.py": "DET-RNG",
        "det_clock_bad.py": "DET-CLOCK",
        "det_perf_bad.py": "DET-PERF",
    }
    for name, rule_id in by_fixture.items():
        findings = engine.check_file(FIXTURES / name, rel="bft/planted.py")
        assert findings, f"{name}: expected {rule_id} findings"
        assert {f.rule for f in findings} == {rule_id}


# -- scope behavior ------------------------------------------------------------

def test_perf_counter_allowed_in_reporting_modules():
    findings = _check("DET-PERF", FIXTURES / "det_perf_bad.py",
                      "faultlab/explorer.py")
    assert findings == []


def test_sim_io_ignores_non_protocol_packages():
    findings = _check("SIM-IO", FIXTURES / "sim_io_bad.py",
                      "faultlab/report.py")
    assert findings == []


def test_sim_block_ignores_non_protocol_packages():
    findings = _check("SIM-BLOCK", FIXTURES / "sim_block_bad.py",
                      "harness/report.py")
    assert findings == []


def test_setiter_scoped_to_replay_packages():
    bad = FIXTURES / "rpl_setiter_bad.py"
    assert _check("RPL-SETITER", bad, "thor/cache.py") == []
    assert len(_check("RPL-SETITER", bad, "faultlab/injector.py")) == 4


def test_swallowed_except_scoped_but_bare_except_global():
    bad = FIXTURES / "wire_except_bad.py"
    # Outside replay-critical packages the `except ValueError: pass`
    # swallow is tolerated, but the bare except still fires.
    findings = _check("WIRE-EXCEPT", bad, "sql/wrapper.py")
    assert len(findings) == 1
    assert "bare except" in findings[0].message
