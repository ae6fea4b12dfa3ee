"""Protocol-conformance rules over the whole program.

DEEP-HANDLER — every wire message class (subclass of the message root
with a ``kind`` class attribute) must have a handler *somewhere* in the
project: ``handle_<kind>``, or ``on_<kind>`` on a replica's manager; a
``handle_*`` method on a protocol node whose suffix matches no
registered kind is flagged too (it will never be dispatched).

DEEP-COST — every handler in the cost-model scope must reach a
``CostModel`` charge (a ``.charge()`` call anywhere in its transitive
callees): a handler that does work without charging skews every
performance result.  A kind whose wire contract names a MAC or a
signature passes: the replica's gate charges it before dispatch.

DEEP-QUORUM — quorum sizes must come from the ``BftConfig.quorum`` /
``weak_quorum`` helpers.  Re-deriving ``2f+1`` / ``f+1`` inline, or
comparing a vote-set size against a hardcoded integer, silently
diverges the moment the helper changes (e.g. for a different fault
budget).  It reads one node at a time, so it is a per-node rule; the
other two need the class hierarchy and the call graph.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.config import MESSAGE_ROOT
from repro.analysis.deep.callgraph import CallGraph
from repro.analysis.deep.project import Project
from repro.analysis.engine import FileContext, Rule


class HandlerRule(Rule):
    rule_id = "DEEP-HANDLER"
    title = "Every wire message kind has a handler"
    rationale = (
        "sim.Node dispatches a message to ``handle_<kind>`` on the "
        "receiving node (a replica, or ``on_<kind>`` on one of its "
        "managers); a Message subclass whose kind no class "
        "handles is silently dropped on delivery (and a handler for "
        "a kind no message declares is dead protocol surface).")
    example = ("class Probe(Message):\n"
               "    kind = 'probe'   # no handle_probe anywhere")

    def check_program(self, project: Project, graph: CallGraph) -> None:
        messages = project.message_classes(MESSAGE_ROOT)
        kinds = {cls.kind for cls in messages}

        # Handlers on any class: clients, edge proxies, replicas and the
        # replica's managers all legitimately terminate messages.
        names = set(project.methods_by_name)
        for cls in messages:
            if not {f"handle_{cls.kind}", f"on_{cls.kind}"} & names:
                cls.module.ctx.report(
                    self, cls.node,
                    f"wire message {cls.name} (kind={cls.kind!r}) has no "
                    f"handle_{cls.kind} handler anywhere in the project")

        # Orphan handlers on protocol nodes: dispatch will never reach
        # them.
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            kind = project.handled_kind(info, kinds)
            if not kind or kind in kinds:
                continue
            info.module.ctx.report(
                self, info.node,
                f"handler {info.cls.name}.{info.name} matches no "
                f"registered message kind (dispatch will never call it)")


#: The contract proofs ``Replica.on_message`` charges before dispatch
#: (``contract = Contract(principal, MAC)`` in bft/messages.py).
GATE_CHARGED = frozenset({"MAC", "SIG"})


class CostRule(Rule):
    rule_id = "DEEP-COST"
    title = "Every protocol handler charges the CostModel"
    rationale = (
        "Benchmark numbers are only honest if every message handler "
        "charges simulated CPU for the work it models — directly or "
        "through a callee.  A handler whose whole call tree never "
        "reaches ``charge()`` executes for free and skews every "
        "req/s figure derived from the cost model.")
    example = ("def handle_probe(self, src, msg):\n"
               "    self.table[msg.key] = msg.value   # no charge()")

    def check_program(self, project: Project, graph: CallGraph) -> None:
        config = project.config
        proofs = {cls.kind: cls.proof
                  for cls in project.message_classes(MESSAGE_ROOT)}
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            kind = project.handled_kind(info, proofs)
            if kind is None or proofs.get(kind) in GATE_CHARGED \
                    or not config.in_cost_scope(info.rel):
                continue
            charges = False
            for callee in graph.reachable(qualname):
                analysis = graph.analysis(callee)
                if analysis is not None and analysis.calls_charge:
                    charges = True
                    break
            if not charges:
                info.module.ctx.report(
                    self, info.node,
                    f"message handler {info.cls.name}.{info.name} never "
                    f"charges the CostModel (no .charge() call reachable "
                    f"from it)")


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


class QuorumRule(Rule):
    rule_id = "DEEP-QUORUM"
    title = "Quorum sizes come from the config helpers"
    rationale = (
        "Certificate arithmetic written inline (``2 * f + 1``, "
        "``f + 1``, or a bare literal compared against a vote count) "
        "silently diverges from the group configuration when n or f "
        "changes — the helpers ``config.quorum`` and "
        "``config.weak_quorum`` are the single source of truth.")
    example = "if len(votes) >= 2 * self.config.f + 1:  # use .quorum"
    node_types = (ast.BinOp, ast.Compare)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.config.quorum_checked(ctx.rel)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.BinOp):
            if _quorum_arith(node):
                ctx.report(self, node,
                           "quorum size derived inline from f; use the "
                           "BftConfig.quorum / weak_quorum helpers")
            return
        if len(node.ops) != 1 or not ctx.config.quorum_len_checked(ctx.rel):
            return
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        hit = None
        if isinstance(op, (ast.GtE, ast.Gt)) and _is_len_call(left):
            hit = _const_int(right)
        elif isinstance(op, (ast.LtE, ast.Lt)) and _is_len_call(right):
            hit = _const_int(left)
        if hit is not None and hit >= 2:
            ctx.report(self, node,
                       f"vote count compared against hardcoded threshold "
                       f"{hit}; use the BftConfig.quorum / weak_quorum "
                       f"helpers")
