"""ProtoLint rule engine: one parse per file, one catalogue of rules.

The engine parses each file once, walks the tree once, and dispatches
every node to the rules registered for that node type.  Rules that need
the whole program (a call graph, the class hierarchy) override
:meth:`Rule.check_program` instead, which runs once after the walk over
a model built from the same parsed files.  Rules report :class:`Finding`
records through the :class:`FileContext`.

Design constraints, in the spirit of the repo's determinism discipline:

- findings are value objects with a total order, so a run over the same
  tree always reports the same findings in the same order;
- every finding fails the run: the only way a rule stops looking at a
  site is its scope in :mod:`repro.analysis.config`;
- everything is pure-stdlib (``ast``), no third-party dependency.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.deep.callgraph import CallGraph, build_callgraph
from repro.analysis.deep.project import Project, build_project


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one site.

    The field order *is* the sort order: findings group by file, then by
    position, then by rule — stable across runs and Python versions.

    ``chain`` is used by the interprocedural (deep) passes: the full
    source→sink path, one ``"frame (file:line)"`` string per hop.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    chain: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message}
        if self.chain:
            out["chain"] = list(self.chain)
        return out

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")


class Rule:
    """Base class for ProtoLint rules.

    Subclasses set ``rule_id``, ``title``, ``rationale`` and ``example``,
    then either set ``node_types`` (the AST classes they want dispatched)
    and implement :meth:`visit`, or override :meth:`check_program`.
    ``begin_file`` runs once per file before the walk — rules that need a
    pre-pass (e.g. inferring which names hold sets) collect state there
    and must reset it per file.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    #: Example of a violation, for the docs rule catalog.
    example: str = ""
    node_types: Tuple[type, ...] = ()

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule runs on ``ctx.rel`` at all (scope check)."""
        return True

    def begin_file(self, ctx: "FileContext") -> None:
        """Per-file pre-pass hook; default does nothing."""

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        raise NotImplementedError

    def check_program(self, project: Project, graph: CallGraph) -> None:
        """Whole-program hook, run once after every file is walked; a
        finding goes to the :class:`FileContext` of the module it is in
        (``project.modules[rel].ctx``).  The engine builds the call graph
        only when a selected rule overrides this."""


class FileContext:
    """One parsed file: everything rules may consult about it, and the
    one place its findings are recorded.

    ``modname`` is the file's dotted module name, which the whole-program
    model resolves imports against.  ``tree`` is None when the file does
    not parse (a ``PL-SYNTAX`` finding says why)."""

    def __init__(self, rel: str, source: str, config: AnalysisConfig,
                 modname: str):
        self.rel = rel
        self.config = config
        self.modname = modname
        self.findings: List[Finding] = []
        self.tree: Optional[ast.Module] = None
        try:
            self.tree = ast.parse(source, filename=rel)
        except SyntaxError as err:
            self.findings.append(Finding(rel, err.lineno or 1, 0,
                                         "PL-SYNTAX",
                                         f"syntax error: {err.msg}"))

    # -- reporting -------------------------------------------------------------

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``."""
        self.report_at(rule, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)

    def report_at(self, rule: Rule, line: int, col: int, message: str,
                  chain: Tuple[str, ...] = ()) -> None:
        """Record a finding at ``line``/``col``."""
        self.findings.append(Finding(self.rel, line, col, rule.rule_id,
                                     message, chain))


class Engine:
    """Runs a rule set over sources: one parse and one walk per file,
    then the whole-program rules over the same parsed files."""

    def __init__(self, rules: Sequence[Rule],
                 config: Optional[AnalysisConfig] = None):
        seen: Dict[str, Rule] = {}
        for rule in rules:
            if not rule.rule_id:
                raise ValueError(f"{type(rule).__name__} has no rule_id")
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id {rule.rule_id}")
            seen[rule.rule_id] = rule
        self.rules: Tuple[Rule, ...] = tuple(
            seen[rid] for rid in sorted(seen))
        self.config = config or AnalysisConfig()
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)
        self._program_rules = tuple(
            r for r in self.rules
            if type(r).check_program is not Rule.check_program)

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        return tuple(rule.rule_id for rule in self.rules)

    def check_source(self, source: str, rel: str) -> List[Finding]:
        """Check one file's text as a one-file program; ``rel`` is its
        path used in findings and in rule scope decisions (e.g.
        ``bft/replica.py``)."""
        return self._check([FileContext(rel, source, self.config,
                                        module_name(rel))])

    def check_file(self, path: Path, rel: Optional[str] = None
                   ) -> List[Finding]:
        rel = rel if rel is not None else path.name
        return self.check_source(path.read_text(encoding="utf-8"), rel)

    def run(self, *roots: Path) -> List[Finding]:
        """Check every ``*.py`` under each root (or the root itself if it
        is a file) as one program; findings carry paths relative to the
        package root."""
        files = sorted({(relativize(path, root), path)
                        for root in roots
                        for path in ([root] if root.is_file()
                                     else root.rglob("*.py"))})
        return self._check([
            FileContext(rel, path.read_text(encoding="utf-8"), self.config,
                        module_name(rel, "repro" in path.resolve().parts))
            for rel, path in files])

    def _check(self, contexts: List[FileContext]) -> List[Finding]:
        for ctx in contexts:
            if ctx.tree is None:
                continue
            active = [r for r in self.rules if r.applies_to(ctx)]
            active_ids = {r.rule_id for r in active}
            for rule in active:
                rule.begin_file(ctx)
            for node in ast.walk(ctx.tree):
                for rule in self._dispatch.get(type(node), ()):
                    if rule.rule_id in active_ids:
                        rule.visit(node, ctx)
        if self._program_rules:
            project = build_project(contexts, self.config)
            graph = build_callgraph(project)
            for rule in self._program_rules:
                rule.check_program(project, graph)
        return sorted(f for ctx in contexts for f in ctx.findings)


def relativize(path: Path, root: Path) -> str:
    """Finding path for ``path`` scanned from ``root``.

    Rule scopes are package-relative (``bft/replica.py``), so when the
    scanned tree contains the ``repro`` package the path is rebased onto
    it — ``src/repro/bft/replica.py`` and ``bft/replica.py`` agree no
    matter which directory the CLI was pointed at.
    """
    path = path.resolve()
    root = root.resolve()
    parts = path.parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        tail = parts[idx + 1:]
        if tail:
            return "/".join(tail)
    if root.is_dir():
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.name


def module_name(rel: str, under_repro: bool = False) -> str:
    """Dotted module name of the file at ``rel``: rebased onto the
    ``repro`` package when the file lives in it (``bft/replica.py`` ->
    ``repro.bft.replica``), so fixture trees resolve like the real one."""
    dotted = rel[:-3].replace("/", ".") if rel.endswith(".py") else \
        rel.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    elif dotted == "__init__":
        dotted = ""
    if under_repro:
        return ("repro." + dotted) if dotted else "repro"
    return dotted
