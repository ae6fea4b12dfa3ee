"""ProtoLint command line.

    python -m repro.analysis [PATH ...] [--out FILE]
                             [--rules DET-RNG,DEEP-TAINT,...] [--list-rules]

Checks every ``*.py`` under the given paths (default: ``src/repro``)
against the registered rule set, prints each finding, and exits nonzero
on any finding — that is the whole contract of the ``protolint`` CI
job.  A rule stops looking at a site only through its scope in
:mod:`repro.analysis.config`.  ``--out`` writes the JSON report.

One pass runs every selected rule from the one catalogue: the per-node
rules, and the whole-program DeepLint rules (call-graph taint + protocol
conformance), which always see the *whole* tree because a call-graph
property can regress through an unchanged file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import report as reportlib
from repro.analysis.engine import Engine
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
        print(f"{rule.rule_id:12s} {rule.title}")
        print(f"    {rule.rationale}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="ProtoLint: protocol-aware static analysis for the "
                    "BASE reproduction.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check "
                             "(default: src/repro)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON report here")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to enable "
                             "(default: all)")
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

    roots = _resolve_roots(args.paths)
    engine = Engine(rules)
    findings = engine.run(*roots)
    rule_ids = engine.rule_ids

    doc = reportlib.build(findings, rule_ids, roots)

    if args.out:
        reportlib.dump(doc, Path(args.out))

    for finding in findings:
        print(finding.render())
        for hop in finding.chain:
            print(f"    {hop}")
    checked = ", ".join(str(r) for r in roots)
    print(f"protolint: {len(rule_ids)} rules over {checked}: "
          f"{len(findings)} finding(s)")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
