"""Schema-validated JSON reports for ProtoLint runs.

The same discipline as FaultLab's reports: a versioned document with
an explicit field schema, validated at the producer, so the CI artifact
is machine-readable and drift is caught where it is introduced.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Sequence

from repro.analysis.engine import SEVERITIES, Finding

#: A finding may carry the optional ``chain`` field (deep-pass
#: source→sink paths, one "frame (file:line)" string per hop); every
#: listed finding fails the run.
SCHEMA_VERSION = 3

REPORT_KIND = "protolint_report"

_REPORT_FIELDS = {
    "kind": str,
    "schema_version": int,
    "python": str,
    "roots": list,
    "rules": list,
    "findings": list,
    "counts": dict,
    "ok": bool,
}

_FINDING_FIELDS = {
    "rule": str,
    "path": str,
    "line": int,
    "col": int,
    "message": str,
    "severity": str,
}

#: Fields a finding may carry beyond the required set.
_FINDING_OPTIONAL = ("chain",)

_COUNT_FIELDS = ("errors", "warnings")


def build(findings: Sequence[Finding], rule_ids: Sequence[str],
          roots: Sequence[str]) -> Dict[str, Any]:
    """The report document for one run."""
    findings = sorted(findings)
    report = {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "roots": [str(r) for r in roots],
        "rules": sorted(rule_ids),
        "findings": [f.to_dict() for f in findings],
        "counts": {
            "errors": sum(1 for f in findings if f.severity == "error"),
            "warnings": sum(1 for f in findings
                            if f.severity == "warning"),
        },
        "ok": not findings,
    }
    validate(report)
    return report


def validate(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` is a valid document."""
    for key, typ in _REPORT_FIELDS.items():
        if key not in report:
            raise ValueError(f"report: missing field {key!r}")
        if typ is int and isinstance(report[key], bool):
            raise ValueError(f"report.{key} must be int, got bool")
        if not isinstance(report[key], typ):
            raise ValueError(f"report.{key} must be {typ.__name__}, got "
                             f"{type(report[key]).__name__}")
    if report["kind"] != REPORT_KIND:
        raise ValueError(f"bad kind {report['kind']!r}")
    counts = report["counts"]
    for key in _COUNT_FIELDS:
        value = counts.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise ValueError(f"counts.{key} must be a non-negative int")
    if set(counts) != set(_COUNT_FIELDS):
        raise ValueError(f"counts must have exactly {_COUNT_FIELDS}")
    for i, doc in enumerate(report["findings"]):
        if not isinstance(doc, dict) or \
                set(doc) - set(_FINDING_OPTIONAL) != set(_FINDING_FIELDS):
            raise ValueError(f"findings[{i}] must have exactly "
                             f"{sorted(_FINDING_FIELDS)} (plus optional "
                             f"{_FINDING_OPTIONAL})")
        chain = doc.get("chain")
        if chain is not None and (
                not isinstance(chain, list) or not chain
                or not all(isinstance(s, str) for s in chain)):
            raise ValueError(f"findings[{i}].chain must be a non-empty "
                             f"list of strings")
        for key, typ in _FINDING_FIELDS.items():
            if typ is int:
                if not isinstance(doc[key], int) or \
                        isinstance(doc[key], bool) or doc[key] < 0:
                    raise ValueError(f"findings[{i}].{key} must be a "
                                     f"non-negative int")
            elif not isinstance(doc[key], typ):
                raise ValueError(f"findings[{i}].{key} must be "
                                 f"{typ.__name__}")
        if doc["severity"] not in SEVERITIES:
            raise ValueError(f"findings[{i}].severity must be one of "
                             f"{SEVERITIES}")
    keys = [_sort_key(doc) for doc in report["findings"]]
    if keys != sorted(keys):
        raise ValueError("findings must be sorted (path, line, col, rule)")
    errors = sum(1 for d in report["findings"] if d["severity"] == "error")
    warnings = len(report["findings"]) - errors
    if counts["errors"] != errors or counts["warnings"] != warnings:
        raise ValueError("counts disagree with the finding list")
    if report["ok"] != (not report["findings"]):
        raise ValueError("ok flag disagrees with the finding list")
    if not all(isinstance(r, str) for r in report["rules"]):
        raise ValueError("rules must be a list of rule-id strings")
    if report["rules"] != sorted(report["rules"]):
        raise ValueError("rules must be sorted")


def _sort_key(doc: Dict[str, Any]):
    return (doc["path"], doc["line"], doc["col"], doc["rule"],
            doc["message"])


def dump(report: Dict[str, Any], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def finding_from_dict(doc: Dict[str, Any]) -> Finding:
    """Rehydrate a Finding from a report entry (for tooling/tests)."""
    return Finding(path=doc["path"], line=doc["line"], col=doc["col"],
                   rule=doc["rule"], message=doc["message"],
                   severity=doc["severity"],
                   chain=tuple(doc.get("chain", ())))
