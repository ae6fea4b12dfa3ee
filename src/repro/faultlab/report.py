"""JSON reports for FaultLab runs.

Each document is the dict one function here builds; its ``kind`` and
``schema_version`` name its shape for the machines that read the CI
artifact.
"""

from __future__ import annotations

import json
import platform
from typing import Any, Dict

from repro.faultlab.explorer import SweepResult, TrialResult

SCHEMA_VERSION = 3  # v3: trial documents report edge reads per mode


def trial_report(result: TrialResult) -> Dict[str, Any]:
    """The ``run`` document for one trial."""
    return {
        "kind": "faultlab_trial",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        **result.to_dict(),
    }


def sweep_report(result: SweepResult, mode: str) -> Dict[str, Any]:
    """The ``sweep`` document (the ``faultlab-smoke`` CI artifact)."""
    per_scenario: Dict[str, Dict[str, int]] = {}
    for trial in result.results:
        stats = per_scenario.setdefault(
            trial.scenario, {"trials": 0, "failures": 0, "issued": 0,
                             "accepted": 0, "faults_injected": 0})
        stats["trials"] += 1
        stats["failures"] += 0 if trial.ok else 1
        stats["issued"] += trial.issued
        stats["accepted"] += trial.accepted
        stats["faults_injected"] += trial.faults_injected
    return {
        "kind": "faultlab_sweep",
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "ok": result.ok,
        "scenarios": result.scenarios,
        "seeds": result.seeds,
        "trials": result.trials,
        "issued": result.issued,
        "accepted": result.accepted,
        "wall_seconds": round(result.wall_seconds, 3),
        "per_scenario": per_scenario,
        "failures": [f.to_dict() for f in result.failures],
    }


def dump(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
