"""ProtoLint command line.

    python -m repro.analysis [PATH ...] [--format text|json] [--out FILE]
                             [--rules DET-RNG,RPL-SETITER,...] [--deep]
                             [--changed-since REF] [--list-rules]

Checks every ``*.py`` under the given paths (default: ``src/repro``)
against the registered rule set and exits nonzero on any finding that
is not suppressed, with a reason, where it occurs — that is the whole
contract of the ``protolint`` CI job.  ``--format json`` emits the
schema-validated report document on stdout; ``--out`` writes it to a
file in either format mode.

``--deep`` additionally runs the interprocedural DeepLint passes
(call-graph taint + protocol conformance) over the *whole* tree; their
findings join the report and are suppressed through the same inline
comments.  ``--changed-since REF`` restricts the per-file rules to
files changed since the git ref — the deep passes stay whole-program,
because a call-graph property can regress through an unchanged file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.analysis import report as reportlib
from repro.analysis.deep.catalog import DEEP_RULES
from repro.analysis.engine import Engine, relativize
from repro.analysis.rules import all_rules, select_rules


def _resolve_roots(paths):
    if paths:
        roots = [Path(p) for p in paths]
    else:
        default = Path("src") / "repro"
        if not default.is_dir():
            print("protolint: no paths given and ./src/repro does not "
                  "exist; pass the tree to check", file=sys.stderr)
            raise SystemExit(2)
        roots = [default]
    for root in roots:
        if not root.exists():
            print(f"protolint: no such path: {root}", file=sys.stderr)
            raise SystemExit(2)
    return roots


def _print_rules() -> int:
    for rule in all_rules():
        print(f"{rule.rule_id:12s} [{rule.severity}] {rule.title}")
        print(f"    {rule.rationale}")
    for info in DEEP_RULES:
        print(f"{info.rule_id:12s} [{info.severity}] {info.title} "
              f"(--deep)")
        print(f"    {info.rationale}")
    return 0


def _changed_files(ref: str) -> Optional[Set[Path]]:
    """Files changed since ``ref``: committed diffs plus untracked
    files, as resolved absolute paths.  None on git failure."""
    changed: Set[Path] = set()
    for cmd in (["git", "diff", "--name-only", ref, "--"],
                ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 check=True)
        except (OSError, subprocess.CalledProcessError) as err:
            detail = getattr(err, "stderr", "") or str(err)
            print(f"protolint: --changed-since: {' '.join(cmd)} failed: "
                  f"{detail.strip()}", file=sys.stderr)
            return None
        for line in out.stdout.splitlines():
            if line.strip():
                changed.add(Path(line.strip()).resolve())
    return changed


def _collect_findings(engine: Engine, roots: List[Path],
                      changed: Optional[Set[Path]]):
    findings = []
    for root in roots:
        paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in paths:
            if changed is not None and path.resolve() not in changed:
                continue
            findings.extend(engine.check_file(path,
                                              relativize(path, root)))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="ProtoLint: protocol-aware static analysis for the "
                    "BASE reproduction.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="stdout format (default text)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the schema-validated JSON report "
                             "here")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to enable "
                             "(default: all)")
    parser.add_argument("--deep", action="store_true",
                        help="also run the interprocedural DeepLint "
                             "passes (whole-program taint + conformance)")
    parser.add_argument("--changed-since", metavar="REF",
                        help="restrict per-file rules to files changed "
                             "since this git ref (deep passes stay "
                             "whole-program)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        return _print_rules()

    try:
        rules = select_rules(args.rules.split(",")) if args.rules \
            else all_rules()
    except ValueError as err:
        parser.error(str(err))

    changed: Optional[Set[Path]] = None
    if args.changed_since:
        changed = _changed_files(args.changed_since)
        if changed is None:
            return 2

    roots = _resolve_roots(args.paths)
    engine = Engine(rules)
    findings = _collect_findings(engine, roots, changed)
    rule_ids = list(engine.rule_ids)

    if args.deep:
        # Imported lazily: the deep passes import the engine, and most
        # invocations never need them.
        from repro.analysis.deep.catalog import DEEP_RULE_IDS
        from repro.analysis.deep.driver import run_deep
        findings.extend(run_deep(roots, engine.config,
                                 known_rule_ids=engine.rule_ids))
        rule_ids.extend(DEEP_RULE_IDS)
    findings.sort()

    doc = reportlib.build(findings, rule_ids, roots)

    if args.out:
        reportlib.dump(doc, Path(args.out))

    if args.fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
            for hop in finding.chain:
                print(f"    {hop}")
        counts = doc["counts"]
        checked = ", ".join(str(r) for r in roots)
        print(f"protolint: {len(rule_ids)} rules over {checked}: "
              f"{counts['errors']} error(s), {counts['warnings']} "
              f"warning(s)")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
