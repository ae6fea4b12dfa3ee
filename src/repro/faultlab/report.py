"""Schema-validated JSON reports for FaultLab runs.

A versioned document with an explicit field schema, validated before
anything writes it, so the CI artifact is machine-readable and drift is
caught at the producer.
"""

from __future__ import annotations

import json
import platform
from typing import Any, Dict

from repro.faultlab.explorer import SweepResult, TrialResult

SCHEMA_VERSION = 3  # v3: trial documents report edge reads per mode


def trial_report(result: TrialResult) -> Dict[str, Any]:
    """The ``run``/``replay`` document for one trial."""
    report = {
        "kind": "faultlab_trial",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        **result.to_dict(),
    }
    validate_trial_report(report)
    return report


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
    report = {
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
    validate_sweep_report(report)
    return report


# -- schema -------------------------------------------------------------------

_TRIAL_FIELDS = {
    "kind": str,
    "schema_version": int,
    "python": str,
    "scenario": str,
    "seed": int,
    "plan": dict,
    "plan_text": str,
    "ok": bool,
    "violations": list,
    "issued": int,
    "accepted": int,
    "sim_seconds": float,
    "wall_seconds": float,
    "faults_injected": int,
    "faults_cleared": int,
    "rollbacks": int,
    "edge_modes": dict,
}

_SWEEP_FIELDS = {
    "kind": str,
    "schema_version": int,
    "mode": str,
    "python": str,
    "ok": bool,
    "scenarios": list,
    "seeds": list,
    "trials": int,
    "issued": int,
    "accepted": int,
    "wall_seconds": float,
    "per_scenario": dict,
    "failures": list,
}

_PER_SCENARIO_FIELDS = ("trials", "failures", "issued", "accepted",
                        "faults_injected")


def _check_fields(doc: Dict[str, Any], schema: Dict[str, type],
                  where: str) -> None:
    for key, typ in schema.items():
        if key not in doc:
            raise ValueError(f"{where}: missing field {key!r}")
        value = doc[key]
        if typ is float:
            # bool is an int subclass; floats accept ints, not bools.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where}.{key} must be numeric")
            if value < 0:
                raise ValueError(f"{where}.{key} must be >= 0")
        elif typ is int and isinstance(value, bool):
            raise ValueError(f"{where}.{key} must be int, got bool")
        elif not isinstance(value, typ):
            raise ValueError(f"{where}.{key} must be {typ.__name__}, "
                             f"got {type(value).__name__}")


def _check_violations(violations: list, where: str) -> None:
    for i, v in enumerate(violations):
        if not isinstance(v, dict) or set(v) != {"invariant", "detail"}:
            raise ValueError(f"{where}.violations[{i}] must be "
                             f"{{invariant, detail}}")


def validate_trial_report(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` is a valid trial document."""
    _check_fields(report, _TRIAL_FIELDS, "trial")
    if report["kind"] != "faultlab_trial":
        raise ValueError(f"bad kind {report['kind']!r}")
    _check_violations(report["violations"], "trial")
    if report["ok"] != (not report["violations"]):
        raise ValueError("ok flag disagrees with the violation list")
    if "faults" not in report["plan"]:
        raise ValueError("plan must carry its fault list")


def validate_sweep_report(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` is a valid sweep document."""
    _check_fields(report, _SWEEP_FIELDS, "sweep")
    if report["kind"] != "faultlab_sweep":
        raise ValueError(f"bad kind {report['kind']!r}")
    if report["mode"] not in ("quick", "full", "custom"):
        raise ValueError(f"mode must be quick|full|custom, "
                         f"got {report['mode']!r}")
    if report["ok"] != (not report["failures"]):
        raise ValueError("ok flag disagrees with the failure list")
    expected = report["trials"]
    counted = sum(s["trials"] for s in report["per_scenario"].values())
    if counted != expected:
        raise ValueError(f"per-scenario trials sum to {counted}, "
                         f"document says {expected}")
    for name, stats in report["per_scenario"].items():
        for key in _PER_SCENARIO_FIELDS:
            if not isinstance(stats.get(key), int) or stats[key] < 0:
                raise ValueError(f"per_scenario[{name!r}].{key} must be a "
                                 f"non-negative int")
    for i, failure in enumerate(report["failures"]):
        if set(failure) != {"trial", "shrunk", "replay"}:
            raise ValueError(f"failures[{i}] must be "
                             f"{{trial, shrunk, replay}}")
        _check_fields(failure["trial"],
                      {k: t for k, t in _TRIAL_FIELDS.items()
                       if k not in ("kind", "schema_version", "python")},
                      f"failures[{i}].trial")


def dump(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
