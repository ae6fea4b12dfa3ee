"""Code-complexity accounting (paper §4.3).

The paper counts semicolons — i.e. statements — to argue that the
conformance wrapper and state-conversion functions are small relative to
the systems they wrap.  The Python analogue counts AST statement nodes,
which like semicolon-counting ignores blank lines and comments.

:func:`package_lines` is the blunter companion: physical lines per
package, held under a ceiling by ``tests/test_harness.py`` so that
growing a package is an edit a reviewer sees; :func:`settable_values`
is held the same way.  ``python -m repro.harness.complexity`` prints all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.harness.report import format_table


def count_statements(source: str) -> int:
    """Number of statement nodes in the module (the semicolon analogue)."""
    tree = ast.parse(source)
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.stmt))


def count_file(path: Path) -> int:
    return count_statements(path.read_text())


def count_module_group(paths: Iterable[Path]) -> int:
    return sum(count_file(p) for p in paths)


def count_settable(source: str) -> int:
    """Values a caller can set: defaulted parameters of every ``def``
    plus defaulted fields of every ``@dataclass`` in the module."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(
                default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass")
                for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def settable_values() -> int:
    return sum(count_settable(path.read_text())
               for path in (repo_root() / "repro").rglob("*.py"))


@dataclass
class ComplexityRow:
    component: str
    statements: int


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]  # .../src


def package_lines() -> Dict[str, int]:
    """Physical lines of ``*.py`` (what ``wc -l`` counts) in every
    ``src/repro`` package and in the perf ledger."""
    packages = {path.name: path
                for path in sorted((repo_root() / "repro").iterdir())
                if (path / "__init__.py").exists()}
    packages["benchmarks/ledger"] = repo_root().parent / "benchmarks/ledger"
    return {name: sum(source.read_text().count("\n")
                      for source in path.rglob("*.py"))
            for name, path in packages.items()}


def line_budget_table() -> str:
    lines = package_lines()
    rows = sorted(lines.items(), key=lambda item: -item[1])
    rows.append(("total", sum(lines.values())))
    return format_table("Line budget: physical lines per package",
                        ["package", "lines"], rows)


def complexity_report() -> List[ComplexityRow]:
    """The §4.3 comparison for this reproduction.

    Groups mirror the paper's: the new code required to replicate each
    service (wrapper + conversions) against the size of the wrapped
    implementation and of the replication library itself.
    """
    src = repo_root() / "repro"
    groups: List[Tuple[str, List[Path]]] = [
        # Dispatch/deployment code shared by every wrapper lives in the
        # service kernel: counted once, like the BASE library, not
        # attributed to any one service's "new code".  Not the
        # conformance battery: test code that nothing under src/ imports.
        ("service kernel (shared)", sorted(
            set((src / "service").glob("*.py"))
            - {src / "service" / "conformance.py"})),
        ("NFS conformance wrapper", [src / "nfs" / "wrapper.py",
                                     src / "nfs" / "conformance.py"]),
        ("NFS state conversions", [src / "nfs" / "conversion.py"]),
        ("NFS abstract spec", [src / "nfs" / "spec.py"]),
        ("wrapped NFS implementations", sorted(
            (src / "nfs" / "backends").glob("*.py"))),
        ("Thor conformance wrapper + conversions",
         [src / "thor" / "wrapper.py"]),
        ("SQL conformance wrapper + conversions",
         [src / "sql" / "wrapper.py"]),
        ("wrapped SQL engines", [src / "sql" / "engine.py"]),
        ("HTTP conformance wrapper + conversions",
         [src / "http" / "wrapper.py"]),
        ("wrapped HTTP servers", [src / "http" / "engine.py"]),
        ("mapping library (§6)", [src / "base" / "mappings.py"]),
        ("wrapped Thor implementation", [
            src / "thor" / p for p in (
                "server.py", "client.py", "pages.py", "mob.py", "cache.py",
                "vq.py", "clients_state.py", "objects.py", "orefs.py")]),
        ("BASE library", sorted((src / "base").glob("*.py"))),
        ("BFT library", sorted((src / "bft").glob("*.py"))),
    ]
    return [ComplexityRow(name, count_module_group(paths))
            for name, paths in groups]


def complexity_table(rows: List[ComplexityRow]) -> str:
    return format_table("Section 4.3: code complexity (AST statements)",
                        ["component", "statements"],
                        [(row.component, row.statements) for row in rows])


if __name__ == "__main__":
    print(line_budget_table())
    print("settable values (defaulted parameters):", settable_values())
    print()
    print(complexity_table(complexity_report()))
