"""JSON reports for ProtoLint runs.

The same discipline as FaultLab's reports: the document is the dict
:func:`build` makes, and its ``kind`` and ``schema_version`` name its
shape for the machines that read the CI artifact.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Sequence

from repro.analysis.engine import Finding

#: A finding may carry the optional ``chain`` field (deep-pass
#: source→sink paths, one "frame (file:line)" string per hop); every
#: listed finding fails the run, so a finding has no severity.
SCHEMA_VERSION = 4


def build(findings: Sequence[Finding], rule_ids: Sequence[str],
          roots: Sequence[str]) -> Dict[str, Any]:
    """The report document for one run."""
    findings = sorted(findings)
    return {
        "kind": "protolint_report",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "roots": [str(r) for r in roots],
        "rules": sorted(rule_ids),
        "findings": [f.to_dict() for f in findings],
        "ok": not findings,
    }


def dump(report: Dict[str, Any], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
