"""``run_deep()``: the DeepLint entry point.

Loads the whole-program model once, builds the call graph, runs the
taint fixpoint and the three conformance passes, and returns one sorted
finding list.  Reports are deterministic: the model iterates in sorted
order everywhere, so two runs over the same tree are byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.deep.callgraph import build_callgraph
from repro.analysis.deep.conformance import (run_cost_pass,
                                             run_handler_pass,
                                             run_quorum_pass)
from repro.analysis.deep.project import Project, load_project
from repro.analysis.deep.taint import TaintPass, Violation
from repro.analysis.engine import Finding


def _short(qualname: str) -> str:
    """Last two dotted components: ``repro.bft.replica.Replica.on_x``
    -> ``Replica.on_x`` (stable and line-free, so a finding's message
    does not churn with unrelated edits)."""
    return ".".join(qualname.split(".")[-2:])


def _taint_finding(violation: Violation) -> Finding:
    tag = violation.tag
    hops = [frame.split(" (")[0] for frame in violation.chain]
    via = " -> ".join(_short(h) for h in hops) if hops else "directly"
    message = (f"nondeterministic value ({tag.kind}: {tag.label}) "
               f"reaches {violation.sink_label} in {violation.sink_rel} "
               f"via {via}")
    chain: Tuple[str, ...] = (
        (f"source: {tag.label} at {tag.rel}:{tag.line}",)
        + violation.chain
        + (f"sink: {violation.sink_label} at "
           f"{violation.sink_rel}:{violation.sink_line}",))
    return Finding(tag.rel, tag.line, 0, "DEEP-TAINT", message,
                   chain=chain)


def _taint_suppressed(project: Project, violation: Violation) -> bool:
    """A taint path is suppressible at either end: the source line or
    the sink line (whichever reads better at the call site)."""
    for rel, line in ((violation.tag.rel, violation.tag.line),
                      (violation.sink_rel, violation.sink_line)):
        module = project.modules.get(rel)
        if module is not None and module.ctx.suppressed("DEEP-TAINT",
                                                        line):
            return True
    return False


def run_taint_pass(project: Project, graph) -> List[Finding]:
    taint = TaintPass(project, graph)
    taint.run()
    findings: List[Finding] = []
    for key in sorted(taint.violations):
        violation = taint.violations[key]
        if _taint_suppressed(project, violation):
            continue
        findings.append(_taint_finding(violation))
    return findings


def run_deep(roots: Sequence[Path],
             config: Optional[AnalysisConfig] = None,
             known_rule_ids: Sequence[str] = ()) -> List[Finding]:
    """Run every deep pass over the trees under ``roots``."""
    project = load_project(roots, config, known_rule_ids)
    graph = build_callgraph(project)
    findings: List[Finding] = []
    findings.extend(run_taint_pass(project, graph))
    findings.extend(run_handler_pass(project, graph))
    findings.extend(run_cost_pass(project, graph))
    findings.extend(run_quorum_pass(project, graph))
    return sorted(findings)
