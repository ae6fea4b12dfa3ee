"""Protocol-conformance passes over the whole-program call graph.

DEEP-HANDLER — every wire message class (subclass of the message root
with a ``kind`` class attribute) must have a ``handle_<kind>`` method
*somewhere* in the project; a ``handle_*`` method on a protocol node
whose suffix matches no registered kind is flagged too (it will never
be dispatched).

DEEP-COST — every ``handle_*`` method on a protocol-node subclass in
the cost-model scope must reach a ``CostModel`` charge (a ``.charge()``
call anywhere in its transitive callees): a handler that does work
without charging skews every performance result.

DEEP-QUORUM — quorum sizes must come from the ``BftConfig.quorum`` /
``weak_quorum`` helpers.  Re-deriving ``2f+1`` / ``f+1`` inline, or
comparing a vote-set size against a hardcoded integer, silently
diverges the moment the helper changes (e.g. for a different fault
budget).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.config import MESSAGE_ROOT, NODE_ROOT
from repro.analysis.deep.callgraph import CallGraph
from repro.analysis.deep.project import Project
from repro.analysis.engine import Finding


def _suppressed(project: Project, rule_id: str, rel: str,
                line: int) -> bool:
    module = project.modules.get(rel)
    return module is not None and module.ctx.suppressed(rule_id, line)


# -- DEEP-HANDLER --------------------------------------------------------------

def run_handler_pass(project: Project, graph: CallGraph) -> List[Finding]:
    _ = graph
    findings: List[Finding] = []
    messages = project.message_classes(MESSAGE_ROOT)
    kinds = {cls.kind for cls in messages}

    # Every handler name defined anywhere (any class: clients, edge
    # proxies, and replicas all legitimately terminate messages).
    handler_names: Set[str] = set()
    for name in project.methods_by_name:
        if name.startswith("handle_"):
            handler_names.add(name)

    for cls in messages:
        handler = f"handle_{cls.kind}"
        if handler in handler_names:
            continue
        if _suppressed(project, "DEEP-HANDLER", cls.rel, cls.lineno):
            continue
        findings.append(Finding(
            cls.rel, cls.lineno, cls.node.col_offset, "DEEP-HANDLER",
            f"wire message {cls.name} (kind={cls.kind!r}) has no "
            f"handle_{cls.kind} handler anywhere in the project"))

    # Orphan handlers on protocol nodes: dispatch will never reach them.
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if info.cls is None or not info.name.startswith("handle_"):
            continue
        if not project.is_subclass(info.cls.qualname, NODE_ROOT):
            continue
        kind = info.name[len("handle_"):]
        if kind in kinds or not kind:
            continue
        if _suppressed(project, "DEEP-HANDLER", info.rel, info.lineno):
            continue
        findings.append(Finding(
            info.rel, info.lineno, info.node.col_offset, "DEEP-HANDLER",
            f"handler {info.cls.name}.{info.name} matches no registered "
            f"message kind (dispatch will never call it)",
            severity="warning"))
    return findings


# -- DEEP-COST -----------------------------------------------------------------

def run_cost_pass(project: Project, graph: CallGraph) -> List[Finding]:
    config = project.config
    findings: List[Finding] = []
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if info.cls is None or not info.name.startswith("handle_"):
            continue
        if not config.in_cost_scope(info.rel):
            continue
        if not project.is_subclass(info.cls.qualname, NODE_ROOT):
            continue
        charges = False
        for callee in graph.reachable(qualname):
            analysis = graph.analysis(callee)
            if analysis is not None and analysis.calls_charge:
                charges = True
                break
        if charges:
            continue
        if _suppressed(project, "DEEP-COST", info.rel, info.lineno):
            continue
        findings.append(Finding(
            info.rel, info.lineno, info.node.col_offset, "DEEP-COST",
            f"message handler {info.cls.name}.{info.name} never charges "
            f"the CostModel (no .charge() call reachable from it)"))
    return findings


# -- DEEP-QUORUM ---------------------------------------------------------------

def _is_f_read(node: ast.AST) -> bool:
    """``x.f`` / ``self.config.f`` / bare ``f`` — a fault-budget read."""
    if isinstance(node, ast.Attribute) and node.attr == "f":
        return True
    return isinstance(node, ast.Name) and node.id == "f"


def _const_int(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def _is_scaled_f(node: ast.AST) -> bool:
    """``2 * f`` / ``f * 2`` / plain ``f`` (any scale counts)."""
    if _is_f_read(node):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left_c, right_c = _const_int(node.left), _const_int(node.right)
        if left_c is not None and _is_f_read(node.right):
            return True
        if right_c is not None and _is_f_read(node.left):
            return True
    return False


def _quorum_arith(node: ast.BinOp) -> bool:
    """``<scaled f> + 1`` / ``1 + <scaled f>`` — an inline quorum size."""
    if not isinstance(node.op, ast.Add):
        return False
    if _const_int(node.right) == 1 and _is_scaled_f(node.left):
        return True
    if _const_int(node.left) == 1 and _is_scaled_f(node.right):
        return True
    return False


def _is_len_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len")


def run_quorum_pass(project: Project, graph: CallGraph) -> List[Finding]:
    _ = graph
    config = project.config
    findings: List[Finding] = []
    for rel in sorted(project.modules):
        if not config.quorum_checked(rel):
            continue
        module = project.modules[rel]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and _quorum_arith(node):
                if _suppressed(project, "DEEP-QUORUM", rel, node.lineno):
                    continue
                findings.append(Finding(
                    rel, node.lineno, node.col_offset, "DEEP-QUORUM",
                    "quorum size derived inline from f; use the "
                    "BftConfig.quorum / weak_quorum helpers"))
            elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                    and config.quorum_len_checked(rel):
                op = node.ops[0]
                left, right = node.left, node.comparators[0]
                hit = None
                if isinstance(op, (ast.GtE, ast.Gt)) and \
                        _is_len_call(left):
                    hit = _const_int(right)
                elif isinstance(op, (ast.LtE, ast.Lt)) and \
                        _is_len_call(right):
                    hit = _const_int(left)
                if hit is None or hit < 2:
                    continue
                if _suppressed(project, "DEEP-QUORUM", rel, node.lineno):
                    continue
                findings.append(Finding(
                    rel, node.lineno, node.col_offset, "DEEP-QUORUM",
                    f"vote count compared against hardcoded threshold "
                    f"{hit}; use the BftConfig.quorum / weak_quorum "
                    f"helpers"))
    return findings
