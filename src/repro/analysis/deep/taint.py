"""Interprocedural nondeterminism-taint analysis (DEEP-TAINT).

The lattice (documented for users in docs/ANALYSIS.md):

Sources — values whose bits depend on something outside (scenario, seed):
  ``wall-clock``  time.time/monotonic/perf_counter, datetime.now, ...
  ``entropy``     os.urandom, uuid.uuid1/uuid4, anything in secrets
  ``rng``         module-level random.* draws (the unseeded global RNG)
  ``hash``        builtins.hash (PYTHONHASHSEED-dependent for str/bytes)
  ``id``          builtins.id (a memory address)
  ``set-order``   values observed in set iteration order (for/comprehension
                  over a set, list()/tuple()/iter() of a set, set.pop())

Sinks — where such a value breaks agreement or replay:
  canonical encoding (``repro.encoding.canonical.canonical``),
  wire message constructors (subclasses of bft.messages.Message),
  digests (``repro.crypto.digest.digest``; checkpoint identity, MACs),
  abstract-state mutation (state-manager writes) *reachable from a
  message handler*.

Sanitizers:
  ``sorted()``, ``min()``, ``max()`` erase ``set-order`` (order no longer
  escapes) but keep value taints; ``len()``, ``bool()``, ``isinstance()``,
  ``type()`` erase everything (only cardinality/type escapes).

Per-function summaries (returned taint, param->return, param->sink,
attribute reads/writes) are computed to a global fixpoint over the call
graph; the domain is finite (source *sites* x sinks x params) and
accumulation is monotone, so the fixpoint terminates — mutual recursion
included.  Each violation is reported as a full source→sink path: the
finding anchors at the source site, the message carries the call chain
by name, and the report's ``chain`` field carries file:line detail.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.config import (CANONICAL_SINKS, DATETIME_READS,
                                   DIGEST_SINKS, GLOBAL_RNG_CALLS,
                                   MESSAGE_ROOT, STATE_SINK_NAMES,
                                   STATE_SINKS, WALL_CLOCK_READS)
from repro.analysis.deep.callgraph import CallGraph, FunctionAnalysis
from repro.analysis.deep.project import FunctionInfo, Project
from repro.analysis.engine import Rule

# -- lattice constants ---------------------------------------------------------

#: dotted external name -> (kind, label)
SOURCE_CALLS: Dict[str, Tuple[str, str]] = {}
for _mod, _attr in sorted(WALL_CLOCK_READS):
    _kind = "entropy" if (_mod, _attr) in (("os", "urandom"),
                                           ("uuid", "uuid1"),
                                           ("uuid", "uuid4")) \
        else "wall-clock"
    SOURCE_CALLS[f"{_mod}.{_attr}"] = (_kind, f"{_mod}.{_attr}()")
for _attr in sorted(DATETIME_READS):
    SOURCE_CALLS[f"datetime.datetime.{_attr}"] = \
        ("wall-clock", f"datetime.{_attr}()")
SOURCE_CALLS["datetime.date.today"] = ("wall-clock", "date.today()")
for _attr in ("perf_counter", "perf_counter_ns"):
    SOURCE_CALLS[f"time.{_attr}"] = ("wall-clock", f"time.{_attr}()")
for _attr in sorted(GLOBAL_RNG_CALLS):
    SOURCE_CALLS[f"random.{_attr}"] = ("rng", f"random.{_attr}()")
SOURCE_CALLS["builtins.hash"] = ("hash", "hash()")
SOURCE_CALLS["builtins.id"] = ("id", "id()")

SECRETS_PREFIX = "secrets."

#: Sanitizers: erase everything (only cardinality/type/truth escapes).
SANITIZE_ALL = frozenset({
    "builtins.len", "builtins.bool", "builtins.isinstance",
    "builtins.issubclass", "builtins.type", "builtins.callable",
})
#: Sanitizers: erase set-order only (order-independent reductions).
SANITIZE_ORDER = frozenset({
    "builtins.sorted", "builtins.min", "builtins.max",
})
#: Builtins that expose a set's iteration order when applied to one.
ORDER_EXPOSING = frozenset({
    "builtins.list", "builtins.tuple", "builtins.iter",
})

#: Attribute-call names that mutate their receiver with their arguments.
MUTATORS = frozenset({
    "append", "add", "extend", "insert", "update", "setdefault",
    "appendleft", "push",
})

SET_ORDER_KIND = "set-order"
PARAM_KIND = "param"

_MAX_LOCAL_ITER = 10
_MAX_ROUNDS = 60


class Tag(NamedTuple):
    """One taint element: a source *site* (or a symbolic parameter)."""

    kind: str
    label: str
    rel: str
    line: int


#: tag -> call chain (frames, earliest hop first).
TaintMap = Dict[Tag, Tuple[str, ...]]


class SinkHit(NamedTuple):
    """A sink reachable from a function parameter."""

    label: str
    rel: str
    line: int
    suffix: Tuple[str, ...]   # frames from the callee entry to the sink


class Violation(NamedTuple):
    tag: Tag
    sink_label: str
    sink_rel: str
    sink_line: int
    chain: Tuple[str, ...]    # frames between source and sink


class Summary:
    """What a caller needs to know about one function."""

    __slots__ = ("ret", "param_ret", "param_sinks", "param_attr_writes")

    def __init__(self) -> None:
        self.ret: TaintMap = {}
        self.param_ret: Set[int] = set()
        self.param_sinks: Dict[int, Dict[Tuple[str, str, int],
                                         SinkHit]] = {}
        self.param_attr_writes: Dict[int, Set[Tuple[str, str]]] = {}

    def snapshot(self) -> tuple:
        return (frozenset(self.ret),
                frozenset(self.param_ret),
                frozenset((i, k) for i, hits in self.param_sinks.items()
                          for k in hits),
                frozenset((i, a) for i, attrs in
                          self.param_attr_writes.items() for a in attrs))


def _frame(qualname: str, rel: str, line: int) -> str:
    return f"{qualname} ({rel}:{line})"


class TaintPass:
    """Global fixpoint driver + per-function abstract interpreter."""

    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.graph = graph
        self.config = project.config
        self.summaries: Dict[str, Summary] = {}
        #: (class qualname, attr) -> taint ever written to self.attr.
        self.attr_taint: Dict[Tuple[str, str], TaintMap] = {}
        self.violations: Dict[Tuple[Tag, str, str, int], Violation] = {}
        self._changed = False
        #: class qualname -> set-typed self attributes (inferred).
        self._class_set_attrs: Dict[str, FrozenSet[str]] = {}
        self._handler_reachable: FrozenSet[str] = frozenset()
        self._message_classes: FrozenSet[str] = frozenset()
        self._prepare()

    # -- setup -----------------------------------------------------------------

    def _prepare(self) -> None:
        self._message_classes = frozenset(
            cls.qualname for cls in self.project.classes.values()
            if cls.qualname != MESSAGE_ROOT
            and self.project.is_subclass(cls.qualname, MESSAGE_ROOT))
        kinds = {c.kind for c in self.project.message_classes(MESSAGE_ROOT)}
        reach: Set[str] = set()
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            if self.project.handled_kind(info, kinds) is not None:
                reach.update(self.graph.reachable(qualname))
        self._handler_reachable = frozenset(reach)
        for qualname in sorted(self.project.classes):
            cls = self.project.classes[qualname]
            attrs: Set[str] = set()
            for mname in sorted(cls.methods):
                for node in ast.walk(cls.methods[mname].node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not _is_set_literalish(node.value):
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self":
                            attrs.add(target.attr)
            self._class_set_attrs[qualname] = frozenset(attrs)

    def class_set_attrs(self, cls_qualname: str) -> FrozenSet[str]:
        out: Set[str] = set()
        for q in self.project.family(cls_qualname):
            out |= self._class_set_attrs.get(q, frozenset())
        return frozenset(out)

    # -- fixpoint --------------------------------------------------------------

    def run(self) -> None:
        qualnames = sorted(self.project.functions)
        for _ in range(_MAX_ROUNDS):
            self._changed = False
            for qualname in qualnames:
                self._process(qualname)
            if not self._changed:
                break

    def _process(self, qualname: str) -> None:
        info = self.project.functions[qualname]
        analysis = self.graph.analysis(qualname)
        if analysis is None:
            return
        old = self.summaries.get(qualname)
        old_snap = old.snapshot() if old is not None else None
        summary = Summary()
        if old is not None:
            # Monotone accumulation: start from the previous summary.
            summary.ret = dict(old.ret)
            summary.param_ret = set(old.param_ret)
            summary.param_sinks = {i: dict(h)
                                   for i, h in old.param_sinks.items()}
            summary.param_attr_writes = {
                i: set(a) for i, a in old.param_attr_writes.items()}
        interp = _BodyInterp(self, info, analysis, summary)
        interp.run()
        self.summaries[qualname] = summary
        if old_snap != summary.snapshot():
            self._changed = True

    # -- shared mutation hooks -------------------------------------------------

    def merge_attr(self, key: Tuple[str, str], taint: TaintMap) -> None:
        dst = self.attr_taint.setdefault(key, {})
        for tag, chain in taint.items():
            if tag.kind == PARAM_KIND:
                continue
            if tag not in dst:
                dst[tag] = chain
                self._changed = True

    def read_attr(self, cls_qualname: str, attr: str) -> TaintMap:
        out: TaintMap = {}
        for q in self.project.family(cls_qualname):
            for tag, chain in self.attr_taint.get((q, attr), {}).items():
                out.setdefault(tag, chain)
        return out

    def record_violation(self, tag: Tag, label: str, rel: str, line: int,
                         chain: Tuple[str, ...]) -> None:
        key = (tag, label, rel, line)
        if key not in self.violations:
            self.violations[key] = Violation(tag, label, rel, line, chain)
            self._changed = True

    def handler_reachable(self, qualname: str) -> bool:
        return qualname in self._handler_reachable

    def is_message_ctor(self, dotted: Optional[str]) -> bool:
        return dotted is not None and dotted in self._message_classes


def _is_set_literalish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


# -- per-function abstract interpretation --------------------------------------

class _BodyInterp:
    def __init__(self, pass_: TaintPass, info: FunctionInfo,
                 analysis: FunctionAnalysis, summary: Summary):
        self.p = pass_
        self.info = info
        self.analysis = analysis
        self.summary = summary
        self.env: Dict[str, TaintMap] = {}
        self.local_sets: Set[str] = set()
        self.cls_set_attrs: FrozenSet[str] = frozenset()
        if info.cls is not None:
            self.cls_set_attrs = pass_.class_set_attrs(info.cls.qualname)
        self._changed = False
        self._lambda_depth = 0
        # Symbolic parameter seeding.
        for idx, name in enumerate(info.params):
            tag = Tag(PARAM_KIND, str(idx), info.rel, info.lineno)
            self.env[name] = {tag: ()}
        for name in info.kwonly:
            self.env.setdefault(name, {})
        # Local set inference (assignment pre-pass).
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and \
                    _is_set_literalish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_sets.add(target.id)

    # -- driver ---------------------------------------------------------------

    def run(self) -> None:
        body = self.info.node.body
        if isinstance(body, ast.expr):  # lambda
            body = [ast.Return(value=body)]
        for _ in range(_MAX_LOCAL_ITER):
            self._changed = False
            self.exec_body(body)
            if not self._changed:
                break

    # -- environment -----------------------------------------------------------

    def bind(self, name: str, taint: TaintMap) -> None:
        dst = self.env.setdefault(name, {})
        for tag, chain in taint.items():
            if tag not in dst:
                dst[tag] = chain
                self._changed = True

    def is_set_expr(self, node: ast.AST) -> bool:
        if _is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.local_sets
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return node.attr in self.cls_set_attrs
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            left = self.is_set_expr(node.left)
            if isinstance(node.op, (ast.BitAnd, ast.Sub)):
                return left
            return left and self.is_set_expr(node.right)
        return False

    def _source_scope_ok(self) -> bool:
        return self.p.config.in_protocol(self.info.rel)

    def set_order_tag(self, node: ast.AST) -> TaintMap:
        if not self._source_scope_ok():
            return {}
        tag = Tag(SET_ORDER_KIND, "set-iteration-order", self.info.rel,
                  getattr(node, "lineno", self.info.lineno))
        return {tag: ()}

    # -- statements ------------------------------------------------------------

    def exec_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign_target(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign_target(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value)
            if isinstance(stmt.target, (ast.Name, ast.Attribute,
                                        ast.Subscript)):
                taint = dict(taint)
                for tag, chain in self.eval(stmt.target).items():
                    taint.setdefault(tag, chain)
            self.assign_target(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.record_return(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.eval(stmt.iter)
            if self.is_set_expr(stmt.iter):
                for tag, chain in self.set_order_tag(stmt.iter).items():
                    taint.setdefault(tag, chain)
            self.assign_target(stmt.target, taint)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign_target(item.optional_vars, taint)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # analyzed as their own graph nodes
        # Pass/Import/Global/Nonlocal/Break/Continue/Delete: no dataflow.

    def assign_target(self, target: ast.AST, taint: TaintMap) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, taint)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and \
                    target.value.id == "self" and self.info.cls is not None:
                self.write_attr(target.attr, taint)
            else:
                # Mutating some other object's attribute: taint the base
                # name so later reads through it stay tainted.
                base = target.value
                if isinstance(base, ast.Name):
                    self.bind(base.id, taint)
        elif isinstance(target, ast.Subscript):
            # d[k] = v taints the container (k, v both matter: a tainted
            # key perturbs ordering, a tainted value is stored).
            taint = dict(taint)
            for tag, chain in self.eval(target.slice).items():
                taint.setdefault(tag, chain)
            self.assign_target(target.value, taint)

    def write_attr(self, attr: str, taint: TaintMap) -> None:
        cls = self.info.cls.qualname
        real = {t: c for t, c in taint.items() if t.kind != PARAM_KIND}
        if real:
            self.p.merge_attr((cls, attr), real)
        for tag in taint:
            if tag.kind == PARAM_KIND:
                idx = int(tag.label)
                dst = self.summary.param_attr_writes.setdefault(idx, set())
                if (cls, attr) not in dst:
                    dst.add((cls, attr))
                    self._changed = True

    def record_return(self, taint: TaintMap) -> None:
        for tag, chain in taint.items():
            if tag.kind == PARAM_KIND:
                idx = int(tag.label)
                if idx not in self.summary.param_ret:
                    self.summary.param_ret.add(idx)
                    self._changed = True
            elif tag not in self.summary.ret:
                self.summary.ret[tag] = chain
                self._changed = True

    # -- expressions -----------------------------------------------------------

    def eval(self, node: Optional[ast.AST]) -> TaintMap:
        if node is None:
            return {}
        if isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and self.info.cls is not None:
                return self.p.read_attr(self.info.cls.qualname, node.attr)
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, (ast.BinOp,)):
            out = self.eval(node.left)
            for tag, chain in self.eval(node.right).items():
                out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: TaintMap = {}
            for value in node.values:
                for tag, chain in self.eval(value).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.Compare):
            out = self.eval(node.left)
            for comp in node.comparators:
                for tag, chain in self.eval(comp).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = {}
            for elt in node.elts:
                for tag, chain in self.eval(elt).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.Dict):
            out = {}
            for key in list(node.keys) + list(node.values):
                for tag, chain in self.eval(key).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.Subscript):
            out = self.eval(node.value)
            for tag, chain in self.eval(node.slice).items():
                out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.Slice):
            out = {}
            for part in (node.lower, node.upper, node.step):
                for tag, chain in self.eval(part).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.IfExp):
            out = self.eval(node.test)
            for part in (node.body, node.orelse):
                for tag, chain in self.eval(part).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.JoinedStr):
            out = {}
            for value in node.values:
                for tag, chain in self.eval(value).items():
                    out.setdefault(tag, chain)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self.eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            return {}
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.record_return(self.eval(node.value))
            return {}
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self.assign_target(node.target, taint)
            return taint
        return {}

    def eval_comprehension(self, node) -> TaintMap:
        out: TaintMap = {}
        for gen in node.generators:
            taint = self.eval(gen.iter)
            if self.is_set_expr(gen.iter) and \
                    not isinstance(node, ast.SetComp):
                # Set-to-set transforms cannot leak order; everything
                # else preserves the hash-ordered sequence.
                for tag, chain in self.set_order_tag(gen.iter).items():
                    taint.setdefault(tag, chain)
            self.assign_target(gen.target, taint)
            for cond in gen.ifs:
                self.eval(cond)
        parts = [getattr(node, "elt", None), getattr(node, "key", None),
                 getattr(node, "value", None)]
        for part in parts:
            if part is not None:
                for tag, chain in self.eval(part).items():
                    out.setdefault(tag, chain)
        return out

    # -- calls -----------------------------------------------------------------

    def eval_call(self, node: ast.Call) -> TaintMap:
        site = self.analysis.by_node.get(id(node))
        func = node.func

        # Named-lambda inlining: evaluate the body with args bound.
        if isinstance(func, ast.Name) and func.id in self.analysis.lambdas \
                and self._lambda_depth < 4:
            lam = self.analysis.lambdas[func.id]
            self._lambda_depth += 1
            saved = {}
            params = [a.arg for a in lam.args.args]
            for idx, param in enumerate(params):
                saved[param] = self.env.get(param)
                taint = self.eval(node.args[idx]) \
                    if idx < len(node.args) else {}
                self.env[param] = taint
            result = self.eval(lam.body)
            for param, old in saved.items():
                if old is None:
                    self.env.pop(param, None)
                else:
                    self.env[param] = old
            self._lambda_depth -= 1
            return result

        arg_taints = [self.eval(a) for a in node.args]
        kw_taints = {kw.arg: self.eval(kw.value) for kw in node.keywords}
        receiver: TaintMap = {}
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value)

        external = site.external if site is not None else None

        # Sanitizers first: they terminate propagation.
        if external in SANITIZE_ALL:
            return {}
        if external in SANITIZE_ORDER:
            out = {}
            for taint in arg_taints + list(kw_taints.values()):
                for tag, chain in taint.items():
                    if tag.kind != SET_ORDER_KIND:
                        out.setdefault(tag, chain)
            return out

        result: TaintMap = {}

        # Sources.
        source = SOURCE_CALLS.get(external) if external else None
        if source is None and external and \
                external.startswith(SECRETS_PREFIX):
            source = ("entropy", f"{external}()")
        if source is not None and self._source_scope_ok():
            tag = Tag(source[0], source[1], self.info.rel, node.lineno)
            result.setdefault(tag, ())
        if external in ORDER_EXPOSING and len(node.args) == 1 and \
                self.is_set_expr(node.args[0]):
            for tag, chain in self.set_order_tag(node).items():
                result.setdefault(tag, chain)
        if isinstance(func, ast.Attribute) and func.attr == "pop" and \
                not node.args and self.is_set_expr(func.value):
            for tag, chain in self.set_order_tag(node).items():
                result.setdefault(tag, chain)

        # Sinks.
        self.check_sinks(node, site, arg_taints, kw_taints)

        # Resolved project targets: apply their summaries.
        applied = False
        if site is not None and site.targets:
            for target in site.targets:
                self.apply_summary(node, site, target, arg_taints,
                                   kw_taints, receiver, result)
            applied = True

        # Unresolved or external: conservative pass-through.
        if not applied and source is None:
            for taint in arg_taints + list(kw_taints.values()):
                for tag, chain in taint.items():
                    result.setdefault(tag, chain)
            for tag, chain in receiver.items():
                result.setdefault(tag, chain)

        # Mutation heuristic: lst.append(tainted) taints lst.
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            combined: TaintMap = {}
            for taint in arg_taints + list(kw_taints.values()):
                for tag, chain in taint.items():
                    combined.setdefault(tag, chain)
            if combined:
                self.assign_target(func.value, combined)

        return result

    def _arg_map(self, target_info: FunctionInfo, site_is_ctor: bool,
                 bound_receiver: Optional[TaintMap],
                 node: ast.Call, arg_taints: List[TaintMap],
                 kw_taints: Dict[Optional[str], TaintMap],
                 ) -> Dict[int, TaintMap]:
        """Map call arguments onto the callee's parameter indexes."""
        argmap: Dict[int, TaintMap] = {}
        offset = 0
        if target_info.is_method:
            offset = 1
            if bound_receiver is not None:
                argmap[0] = bound_receiver
        params = target_info.params
        for pos, taint in enumerate(arg_taints):
            idx = pos + offset
            if idx < len(params):
                argmap[idx] = taint
        for name, taint in kw_taints.items():
            if name is None:
                continue
            if name in params:
                argmap[params.index(name)] = taint
        _ = node
        return argmap

    def apply_summary(self, node: ast.Call, site, target: str,
                      arg_taints: List[TaintMap],
                      kw_taints: Dict[Optional[str], TaintMap],
                      receiver: TaintMap, result: TaintMap) -> None:
        summary = self.p.summaries.get(target)
        target_info = self.p.project.functions.get(target)
        if target_info is None:
            return
        frame = _frame(target, self.info.rel, node.lineno)
        bound = receiver if (target_info.is_method
                             and site.ctor is None) else None
        argmap = self._arg_map(target_info, site.ctor is not None, bound,
                               node, arg_taints, kw_taints)
        if summary is None:
            return
        # Returned taint.
        for tag, chain in summary.ret.items():
            result.setdefault(tag, chain + (frame,))
        for idx in summary.param_ret:
            for tag, chain in argmap.get(idx, {}).items():
                result.setdefault(tag, chain + (frame,))
        # Parameter-to-sink flows.
        for idx, hits in summary.param_sinks.items():
            taint = argmap.get(idx, {})
            for hit in hits.values():
                for tag, chain in taint.items():
                    if tag.kind == PARAM_KIND:
                        own = int(tag.label)
                        dst = self.summary.param_sinks.setdefault(own, {})
                        key = (hit.label, hit.rel, hit.line)
                        if key not in dst:
                            dst[key] = SinkHit(hit.label, hit.rel,
                                               hit.line,
                                               (frame,) + hit.suffix)
                            self._changed = True
                    else:
                        self.p.record_violation(
                            tag, hit.label, hit.rel, hit.line,
                            chain + (frame,) + hit.suffix)
        # Parameter-to-attribute flows.
        for idx, attrs in summary.param_attr_writes.items():
            taint = argmap.get(idx, {})
            if not taint:
                continue
            real = {t: c + (frame,) for t, c in taint.items()
                    if t.kind != PARAM_KIND}
            for key in sorted(attrs):
                if real:
                    self.p.merge_attr(key, real)
                for tag in taint:
                    if tag.kind == PARAM_KIND:
                        own = int(tag.label)
                        dst = self.summary.param_attr_writes.setdefault(
                            own, set())
                        if key not in dst:
                            dst.add(key)
                            self._changed = True

    # -- sinks -----------------------------------------------------------------

    def check_sinks(self, node: ast.Call, site,
                    arg_taints: List[TaintMap],
                    kw_taints: Dict[Optional[str], TaintMap]) -> None:
        if site is None:
            return
        label: Optional[str] = None
        external = site.external
        if external in CANONICAL_SINKS:
            label = "canonical()"
        elif external in DIGEST_SINKS:
            label = "digest()"
        elif site.ctor is not None and self.p.is_message_ctor(site.ctor):
            label = f"wire message {site.ctor.rsplit('.', 1)[-1]}()"
        elif site.targets and not site.fallback:
            for target in site.targets:
                if target in CANONICAL_SINKS:
                    label = "canonical()"
                elif target in DIGEST_SINKS:
                    label = "digest()"
        if label is None:
            # Abstract-state mutation, gated on handler reachability.
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            dotted_hit = external in STATE_SINKS or any(
                t in STATE_SINKS for t in site.targets)
            name_hit = name in STATE_SINK_NAMES
            if (dotted_hit or name_hit) and \
                    self.p.handler_reachable(self.info.qualname):
                label = f"abstract-state write {name or external}()"
        if label is None:
            return
        sink_rel, sink_line = self.info.rel, node.lineno
        for taint in arg_taints + list(kw_taints.values()):
            for tag, chain in taint.items():
                if tag.kind == PARAM_KIND:
                    idx = int(tag.label)
                    dst = self.summary.param_sinks.setdefault(idx, {})
                    key = (label, sink_rel, sink_line)
                    if key not in dst:
                        dst[key] = SinkHit(label, sink_rel, sink_line, ())
                        self._changed = True
                else:
                    self.p.record_violation(tag, label, sink_rel,
                                            sink_line, chain)


# -- the rule ------------------------------------------------------------------

def _short(qualname: str) -> str:
    """Last two dotted components: ``repro.bft.replica.Replica.on_x``
    -> ``Replica.on_x`` (stable and line-free, so a finding's message
    does not churn with unrelated edits)."""
    return ".".join(qualname.split(".")[-2:])


class TaintRule(Rule):
    rule_id = "DEEP-TAINT"
    title = "No nondeterministic value may reach a replicated sink"
    rationale = (
        "Replicas are deterministic state machines behind the "
        "abstraction function; a wall-clock read, unseeded RNG draw, "
        "hash()/id() value, or set-iteration-order value that flows — "
        "through any number of helper calls — into canonical "
        "encoding, a wire message, a digest, or abstract state breaks "
        "agreement silently.  The intraprocedural DET-*/RPL-* rules "
        "see only the call site; this pass follows the value.")
    example = ("def _stamp():\n"
               "    return time.time()          # laundered source\n"
               "...\n"
               "canonical((op, _stamp()))       # sink, two calls away")

    def check_program(self, project: Project, graph: CallGraph) -> None:
        taint = TaintPass(project, graph)
        taint.run()
        for key in sorted(taint.violations):
            violation = taint.violations[key]
            tag = violation.tag
            hops = [frame.split(" (")[0] for frame in violation.chain]
            via = " -> ".join(_short(h) for h in hops) if hops \
                else "directly"
            project.modules[tag.rel].ctx.report_at(
                self, tag.line, 0,
                f"nondeterministic value ({tag.kind}: {tag.label}) "
                f"reaches {violation.sink_label} in {violation.sink_rel} "
                f"via {via}",
                chain=((f"source: {tag.label} at {tag.rel}:{tag.line}",)
                       + violation.chain
                       + (f"sink: {violation.sink_label} at "
                          f"{violation.sink_rel}:{violation.sink_line}",)))
