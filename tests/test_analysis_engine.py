"""Engine-level tests for ProtoLint: one outcome per finding, reports,
deterministic ordering, the ``python -m repro.analysis`` CLI, and the
tier-1 gate over ``src/repro``."""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import Engine, Finding, relativize
from repro.analysis.rules import all_rules, select_rules
from repro.analysis import report as reportlib
from repro.analysis.__main__ import main

REL = "bft/fixture.py"

BAD_LINE = "value = random.choice(options)\n"


def _findings(source, rules=("DET-RNG",), rel=REL):
    return Engine(select_rules(list(rules))).check_source(source, rel)


# -- a finding has one outcome -------------------------------------------------

#: Split so that the tree holds no such comment of its own.
DISABLE = "# protolint: " "disable="


def test_a_disable_comment_does_not_silence_a_finding():
    """A disable comment, in any shape, is a plain comment: the finding
    stands, and the comment adds none of its own."""
    shapes = {
        "with a reason": BAD_LINE[:-1] + f"  {DISABLE}DET-RNG fixture\n",
        "standalone above": f"{DISABLE}DET-RNG the line below\n" + BAD_LINE,
        "no reason": BAD_LINE[:-1] + f"  {DISABLE}DET-RNG\n",
        "unknown rule": BAD_LINE[:-1] + f"  {DISABLE}NOT-A-RULE why\n",
        "malformed": BAD_LINE[:-1] + f"  {DISABLE[:-1]} DET-RNG\n",
    }
    for shape, body in shapes.items():
        findings = _findings("import random\n" + body)
        assert [f.rule for f in findings] == ["DET-RNG"], shape


def test_suppression_does_not_leak_past_the_next_line():
    src = ("import random\n"
           f"{DISABLE}DET-RNG only reaches line 3\n"
           "x = 1\n"
           + BAD_LINE)
    findings = _findings(src)
    assert [f.rule for f in findings] == ["DET-RNG"]


def test_suppression_only_covers_named_rules():
    src = ("import random, time\n"
           f"t = time.time()  {DISABLE}DET-RNG wrong rule named\n")
    findings = _findings(src, rules=("DET-RNG", "DET-CLOCK"))
    assert [f.rule for f in findings] == ["DET-CLOCK"]


def test_multi_rule_suppression():
    """A disable comment naming two rules leaves both findings standing."""
    src = ("import random, time\n"
           "t = random.random() * time.time()  "
           f"{DISABLE}DET-RNG,DET-CLOCK fixture needs both\n")
    findings = _findings(src, rules=("DET-RNG", "DET-CLOCK"))
    assert [f.rule for f in findings] == ["DET-RNG", "DET-CLOCK"]


def test_suppression_vocabulary_is_every_rule_whatever_is_selected():
    """A disable comment naming a rule that is not selected adds no
    finding: only the ``--rules`` subset reports."""
    src = ("import time\n"
           f"t = time.time()  {DISABLE}DET-CLOCK display only\n")
    assert _findings(src, rules=("DET-RNG",)) == []


def test_hash_inside_string_is_not_a_suppression():
    src = ('import random\n'
           f'label = "{DISABLE}DET-RNG not a comment"\n'
           + BAD_LINE)
    findings = _findings(src)
    assert [f.rule for f in findings] == ["DET-RNG"]


# -- report schema -------------------------------------------------------------

def _one_finding():
    findings = _findings("import random\n" + BAD_LINE)
    assert len(findings) == 1
    return findings[0]


def _report(findings=()):
    return reportlib.build(findings, [r.rule_id for r in all_rules()],
                           ["src/repro"])


REPORT_KEYS = {"kind", "schema_version", "python", "roots", "rules",
               "findings", "ok"}


def test_report_builds_and_validates():
    finding = _one_finding()
    doc = _report([finding])
    assert set(doc) == REPORT_KEYS
    assert doc["kind"] == "protolint_report"
    assert doc["ok"] is False
    assert doc["schema_version"] == 4
    assert doc["findings"] == [finding.to_dict()]
    assert doc["findings"][0]["rule"] == "DET-RNG"
    # Round-trips through JSON.
    assert json.loads(json.dumps(doc)) == doc


def test_report_ok_when_clean():
    doc = _report()
    assert doc["ok"] is True and doc["findings"] == []


def test_report_sorts_its_findings():
    doc = _report([Finding("b.py", 1, 0, "DET-RNG", "m"),
                   Finding("a.py", 1, 0, "DET-RNG", "m")])
    assert [f["path"] for f in doc["findings"]] == ["a.py", "b.py"]
    assert doc["rules"] == sorted(doc["rules"])


# -- deterministic ordering ----------------------------------------------------

def test_findings_are_deterministically_ordered(tmp_path):
    (tmp_path / "bft").mkdir()
    (tmp_path / "bft" / "b.py").write_text(
        "import random, time\n"
        "x = random.choice([1])\n"
        "t = time.time()\n")
    (tmp_path / "bft" / "a.py").write_text(
        "import random\n"
        "y = random.random()\n")
    engine = Engine(all_rules())
    first = engine.run(tmp_path)
    second = engine.run(tmp_path)
    assert first == second
    assert [f.path for f in first] == sorted(f.path for f in first)
    assert first == sorted(first)


def test_relativize_rebases_onto_the_repro_package(tmp_path):
    root = tmp_path / "src"
    target = root / "repro" / "bft" / "replica.py"
    target.parent.mkdir(parents=True)
    target.write_text("x = 1\n")
    assert relativize(target, root) == "bft/replica.py"
    assert relativize(target, root / "repro") == "bft/replica.py"
    other = tmp_path / "elsewhere" / "mod.py"
    other.parent.mkdir()
    other.write_text("x = 1\n")
    assert relativize(other, tmp_path) == "elsewhere/mod.py"


# -- engine misc ---------------------------------------------------------------

def test_engine_rejects_duplicate_rule_ids():
    rule = select_rules(["DET-RNG"])[0]
    with pytest.raises(ValueError):
        Engine([rule, type(rule)()])


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="NOT-A-RULE"):
        select_rules(["NOT-A-RULE"])


def test_syntax_error_becomes_a_finding():
    findings = Engine(all_rules()).check_source("def broken(:\n", REL)
    assert [f.rule for f in findings] == ["PL-SYNTAX"]


# -- CLI -----------------------------------------------------------------------

def _write_bad_tree(tmp_path):
    pkg = tmp_path / "bft"
    pkg.mkdir()
    (pkg / "mod.py").write_text("import random\n" + BAD_LINE)
    return tmp_path


def test_cli_exits_nonzero_on_findings(tmp_path, capsys):
    root = _write_bad_tree(tmp_path)
    assert main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "DET-RNG" in out and "bft/mod.py" in out


def test_cli_json_output_validates(tmp_path, capsys):
    """Stdout is text; the JSON document is what ``--out`` writes."""
    root = _write_bad_tree(tmp_path)
    out_file = tmp_path / "report.json"
    assert main([str(root), "--out", str(out_file)]) == 1
    lines = capsys.readouterr().out.splitlines()
    file_doc = json.loads(out_file.read_text())
    assert set(file_doc) == REPORT_KEYS
    assert lines[:-1] == [Finding(**doc).render()
                          for doc in file_doc["findings"]]
    assert lines[-1].endswith(": 1 finding(s)")


def test_cli_rule_subset(tmp_path):
    root = _write_bad_tree(tmp_path)
    assert main([str(root), "--rules", "DET-CLOCK"]) == 0
    assert main([str(root), "--rules", "DET-RNG"]) == 1


def test_cli_rejects_unknown_rule(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path), "--rules", "BOGUS"])


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


# -- the gate itself -----------------------------------------------------------

def test_src_tree_is_protolint_clean():
    """The whole point: src/repro stays clean under all fourteen rules,
    per-file and whole-program, in one pass — every finding is fixed, or
    the rule's scope in ``analysis/config.py`` changes."""
    repo = Path(__file__).resolve().parent.parent
    engine = Engine(all_rules())
    findings = engine.run(repo / "src" / "repro")
    assert findings == [], "\n".join(
        f.render() + "".join(f"\n    {hop}" for hop in f.chain)
        for f in findings)
