"""DeepLint: fixture rules, call-graph edge cases, the CLI.

Fixture trees live under ``tests/analysis_fixtures/deep/<case>/repro/``:
the ``repro/`` directory makes the loader assign the same dotted module
names the real package gets, so the sink/root anchors in the analysis
config resolve against the fixtures unchanged.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import Engine, Finding, Rule
from repro.analysis.rules import all_rules, select_rules
from repro.analysis import report as reportlib
from repro.analysis.__main__ import main
from repro.analysis.config import EVERYWHERE

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "deep"

#: case dir -> (rule id, expected findings of that rule)
CASES = {
    "taint_clock_bad": ("DEEP-TAINT", 1),
    "taint_value_bad": ("DEEP-TAINT", 2),
    "taint_setorder_bad": ("DEEP-TAINT", 2),
    "taint_ok": ("DEEP-TAINT", 0),
    "handler_bad_1": ("DEEP-HANDLER", 1),
    "handler_bad_2": ("DEEP-HANDLER", 2),
    "handler_ok": ("DEEP-HANDLER", 0),
    "cost_bad_1": ("DEEP-COST", 1),
    "cost_bad_2": ("DEEP-COST", 1),
    "cost_bad_contract": ("DEEP-COST", 2),
    "cost_ok": ("DEEP-COST", 0),
    "quorum_bad_1": ("DEEP-QUORUM", 2),
    "quorum_bad_2": ("DEEP-QUORUM", 2),
    "quorum_ok": ("DEEP-QUORUM", 0),
}


#: The DeepLint rules: the ones these fixture trees cover.
DEEP_IDS = sorted({rule for rule, _ in CASES.values()})


def deeplint(*roots: Path):
    return Engine(select_rules(DEEP_IDS), EVERYWHERE).run(*roots)


def deep(case: str):
    return deeplint(FIXTURES / case)


class Capture(Rule):
    """A whole-program rule that keeps what the engine hands it."""

    rule_id = "TEST-CAPTURE"

    def check_program(self, project, graph):
        self.project, self.graph = project, graph


def capture(root: Path) -> Capture:
    rule = Capture()
    Engine([rule], EVERYWHERE).run(root)
    return rule


def of_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


def test_every_deep_rule_has_fixture_coverage():
    # At least two bad fixtures and one ok fixture per rule.
    for rule_id in DEEP_IDS:
        bad = [c for c, (r, n) in CASES.items() if r == rule_id and n]
        ok = [c for c, (r, n) in CASES.items() if r == rule_id and not n]
        assert len(bad) >= 2, f"{rule_id} needs >=2 bad fixtures"
        assert ok, f"{rule_id} needs an ok fixture"


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixture(case):
    rule_id, expected = CASES[case]
    found = of_rule(deep(case), rule_id)
    rendered = "\n".join(f.render() for f in found)
    assert len(found) == expected, \
        f"{case}: expected {expected} {rule_id}, got:\n{rendered}"


def test_catalog_is_complete():
    rules = all_rules()
    assert len(rules) == 14
    for rule in rules:
        assert rule.title and rule.rationale and rule.example, rule.rule_id


def test_taint_finding_carries_source_to_sink_chain():
    (finding,) = deep("taint_clock_bad")
    assert finding.rule == "DEEP-TAINT"
    assert finding.path == "bft/build.py"
    assert finding.chain[0].startswith("source: time.time()")
    assert finding.chain[-1].startswith("sink: canonical()")
    assert any("now_ts" in hop for hop in finding.chain)
    # The message names the path by function only — line churn in the
    # chain must not churn the message.
    assert "now_ts" in finding.message
    assert ":" not in finding.message.split(" via ")[1]


def test_handler_orphan_is_a_finding():
    """An orphan handler fails the run like a message with no handler."""
    findings = of_rule(deep("handler_bad_2"), "DEEP-HANDLER")
    assert len(findings) == 2
    assert sum("handle_zap" in f.message for f in findings) == 1


def test_cost_rule_reads_the_wire_contract():
    """A kind whose contract names a MAC or a signature is charged by the
    replica's gate, so its uncharged handler passes; a member-only or
    open kind's is flagged, on a node or as a manager's ``on_<kind>``."""
    flagged = sorted(f.message.split()[2]
                     for f in of_rule(deep("cost_bad_contract"), "DEEP-COST"))
    assert flagged == ["PeekManager.on_peek", "Replica.handle_pong"]


def test_state_sink_reported_through_handler():
    findings = of_rule(deep("taint_setorder_bad"), "DEEP-TAINT")
    labels = {f.message.split(" reaches ")[1].split(" in ")[0]
              for f in findings}
    assert any("abstract-state write" in label for label in labels)
    assert any("wire message Ping" in label for label in labels)


def test_deep_runs_are_deterministic():
    roots = [FIXTURES / case for case in sorted(CASES)]
    one = deeplint(*roots)
    two = deeplint(*roots)
    assert one == two
    dump = lambda fs: json.dumps([f.to_dict() for f in fs])  # noqa: E731
    assert dump(one) == dump(two)


# -- call-graph edge cases (synthetic trees) -----------------------------------

CANONICAL_SRC = "def canonical(value):\n    return repr(value).encode()\n"


def write_tree(root: Path, files):
    for rel, source in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def test_op_dispatch_edge(tmp_path):
    """@op methods get a synthetic edge from execute(): a handler that
    charges only inside an @op body still satisfies DEEP-COST."""
    write_tree(tmp_path, {
        "sim/node.py": """\
            class Node:
                def charge(self, units):
                    return units
            """,
        "bft/messages.py": """\
            class Message:
                kind = "message"


            class Ping(Message):
                kind = "ping"
            """,
        "bft/svc.py": """\
            from repro.sim.node import Node


            def op(method):
                return method


            class Service(Node):
                def handle_ping(self, src, msg):
                    self.execute(msg)

                def execute(self, args):
                    return args

                @op
                def put(self, value):
                    self.charge(1)
                    return value
            """,
    })
    execute = "repro.bft.svc.Service.execute"
    assert "repro.bft.svc.Service.put" in \
        capture(tmp_path).graph.callees(execute)
    findings = deeplint(tmp_path)
    assert not of_rule(findings, "DEEP-COST")


def test_super_call_resolution(tmp_path):
    write_tree(tmp_path, {
        "encoding/canonical.py": CANONICAL_SRC,
        "bft/layers.py": """\
            import time

            from repro.encoding.canonical import canonical


            class Base:
                def stamp(self):
                    return time.time()


            class Child(Base):
                def stamp(self):
                    return 0

                def build(self):
                    return canonical(super().stamp())
            """,
    })
    findings = of_rule(deeplint(tmp_path),
                       "DEEP-TAINT")
    # super().stamp() resolves past Child.stamp (which is clean) to
    # Base.stamp (tainted).
    assert len(findings) == 1
    assert any("Base.stamp" in hop for hop in findings[0].chain)


def test_lambda_and_comprehension(tmp_path):
    write_tree(tmp_path, {
        "encoding/canonical.py": CANONICAL_SRC,
        "bft/funcs.py": """\
            import time

            from repro.encoding.canonical import canonical


            def via_lambda():
                f = lambda: time.time()
                return canonical(f())


            def via_comprehension():
                pending = {1, 2, 3}
                return canonical([x for x in pending])
            """,
    })
    findings = of_rule(deeplint(tmp_path),
                       "DEEP-TAINT")
    kinds = sorted(f.message.split("(")[1].split(":")[0]
                   for f in findings)
    assert kinds == ["set-order", "wall-clock"]


def test_aliased_imports(tmp_path):
    write_tree(tmp_path, {
        "encoding/canonical.py": CANONICAL_SRC,
        "bft/aliased.py": """\
            import time as clock

            from repro.encoding.canonical import canonical as canon


            def build():
                return canon(clock.time())
            """,
    })
    findings = of_rule(deeplint(tmp_path),
                       "DEEP-TAINT")
    assert len(findings) == 1
    assert "time.time()" in findings[0].message


def test_inherited_classmethod_on_local_subclass_resolves(tmp_path):
    """``self.x = Sub.load(...)`` where ``Sub`` is defined in the same
    module and inherits ``load``: the dotted name has no definition of
    its own and must not send ``normalize`` round in a circle."""
    write_tree(tmp_path, {
        "base/mapping.py": """\
            class Mapping:
                @classmethod
                def load(cls, blob):
                    return cls()
            """,
        "sql/wrapper.py": """\
            from repro.base.mapping import Mapping


            class RowMapping(Mapping):
                pass


            class Wrapper:
                def load_rep(self, saved):
                    self.rows = RowMapping.load(saved)
            """,
    })
    assert "repro.sql.wrapper.RowMapping" in capture(tmp_path).project.classes


def test_mutual_recursion_reaches_fixpoint(tmp_path):
    write_tree(tmp_path, {
        "encoding/canonical.py": CANONICAL_SRC,
        "bft/mutual.py": """\
            import time

            from repro.encoding.canonical import canonical


            def ping(n):
                if n:
                    return pong(n - 1)
                return time.time()


            def pong(n):
                return ping(n)


            def build():
                return canonical(ping(3))
            """,
    })
    findings = of_rule(deeplint(tmp_path),
                       "DEEP-TAINT")
    assert len(findings) == 1


#: Split so that the tree holds no such comment of its own.
DISABLE_TAINT = "# protolint: " "disable=DEEP-TAINT display-only"


def _disabled_taint_tree(tmp_path, source_line, sink_line):
    write_tree(tmp_path, {
        "encoding/canonical.py": CANONICAL_SRC,
        "bft/build.py": f"""\
            import time

            from repro.encoding.canonical import canonical


            def build():
                {source_line}
                ts = time.time()
                {sink_line}
                return canonical(ts)
            """,
    })
    (finding,) = of_rule(deeplint(tmp_path), "DEEP-TAINT")
    assert finding.line == 8
    assert finding.chain[-1].endswith("bft/build.py:10")


def test_a_disable_comment_does_not_silence_a_deep_finding(tmp_path):
    """A comment above the source line does not hide the path."""
    _disabled_taint_tree(tmp_path, DISABLE_TAINT, "pass")


def test_a_sink_line_comment_does_not_silence_a_deep_finding(tmp_path):
    """A comment above the sink line does not hide the path either."""
    _disabled_taint_tree(tmp_path, "pass", DISABLE_TAINT)


# -- report schema: the chain field --------------------------------------------

def test_report_schema_accepts_chain():
    finding = Finding("bft/a.py", 3, 0, "DEEP-TAINT", "taint msg",
                      chain=("source: x at bft/a.py:3",
                             "sink: canonical() at bft/b.py:9"))
    doc = reportlib.build([finding], DEEP_IDS, ["src/repro"])
    assert doc["findings"] == [finding.to_dict()]
    assert doc["findings"][0]["chain"] == list(finding.chain)


# -- CLI -----------------------------------------------------------------------

def test_cli_reports_deep_findings_with_their_chain(tmp_path, capsys):
    """The deep rules need no flag: every run is all fourteen rules."""
    out = tmp_path / "report.json"
    code = main([str(FIXTURES / "taint_clock_bad"), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert set(report) == {"kind", "schema_version", "python", "roots",
                           "rules", "findings", "ok"}
    rules = {doc["rule"] for doc in report["findings"]}
    assert rules == {"DEEP-TAINT", "DET-CLOCK"}
    assert report["findings"][0]["chain"]
    assert set(DEEP_IDS) <= set(report["rules"])
    text = capsys.readouterr().out
    assert "DEEP-TAINT" in text and "source: time.time()" in text


def test_cli_rules_runs_only_the_named_rules(tmp_path):
    """``--rules`` selects from the one catalogue: with no DEEP-* id
    named no whole-program rule runs, and a named one runs alone."""
    out = tmp_path / "report.json"
    for ids in (["DET-CLOCK"], ["DEEP-TAINT"]):
        code = main([str(FIXTURES / "taint_clock_bad"),
                     "--rules", ",".join(ids), "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["rules"] == ids
        assert {doc["rule"] for doc in report["findings"]} == set(ids)
