"""Compare two ledger files, metric by metric, against the fixed bounds.

Per workload and end-to-end metric the verdict is one of

``better`` / ``worse``
    B's median differs from A's by more than the metric's regress bound
    (``BENCHMARK.json``), in the good or the bad direction;
``within-bound``
    it does not;
``unresolved``
    the measurement cannot tell: the noise floor of either median —
    the quartile distance of its repeats over their median, divided by
    the square root of their number — is wider than the bound.

Simulated metrics repeat exactly, so their noise floor is 0 and any
difference is a real one.  Runs whose input fingerprints differ measured
different things and are not compared at all.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from benchmarks.ledger.metrics import SCOPED_BOUNDS


SCHEMA = 1

_WORKLOAD_KEYS = {
    "workload": str, "seed": int, "smoke": bool, "trace": bool,
    "correct": bool, "problems": list, "attempted": int, "failed": int,
    "failed_ops_share": (int, float), "repeats": int, "sim_repeats": int,
    "traced_repeats": int, "latency_samples": int, "fingerprints": dict,
    "fingerprint_check": str, "sim_digest": str, "noisy": bool,
    "end_to_end": dict, "per_layer": dict,
}


class Incomparable(Exception):
    """The two ledgers did not measure the same inputs."""


def validate_ledger(ledger: Any, spec: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``ledger`` is a schema-1 ledger that
    names every metric ``BENCHMARK.json`` declares and no other (the
    traced per-layer rows only once a traced run has filled them in)."""
    errors: List[str] = []
    number = (int, float)

    def need(where: str, obj: Dict[str, Any], keys: Dict[str, Any]) -> bool:
        bad = [k for k, t in keys.items()
               if not isinstance(obj.get(k), t)
               or (t is int and isinstance(obj.get(k), bool))]
        extra = sorted(set(obj) - set(keys) - {"shares"})
        if bad or extra:
            errors.append(f"{where}: missing or mistyped {bad}, "
                          f"unknown {extra}")
        return not bad

    if not isinstance(ledger, dict) or not need("ledger", ledger, {
            "schema": int, "seed": int, "seconds": number, "smoke": bool,
            "workloads": dict}):
        raise ValueError("; ".join(errors) or "a ledger is a JSON object")
    if ledger["schema"] != SCHEMA:
        errors.append(f"schema {ledger['schema']}, expected {SCHEMA}")
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    unknown = set(ledger["workloads"]) - {w["name"]
                                          for w in spec["workloads"]}
    if unknown or not ledger["workloads"]:
        errors.append(f"workloads: none, or undeclared {sorted(unknown)}")
    for name, w in ledger["workloads"].items():
        if not isinstance(w, dict) or not need(name, w, _WORKLOAD_KEYS):
            continue
        for kind, fields in (("end_to_end", ("value", "q1", "q3", "n")),
                             ("per_layer", ("value",))):
            names, want = set(w[kind]), set(declared[kind])
            missing = want - names
            if kind == "per_layer" and not w["traced_repeats"]:
                missing = set()       # traced rows arrive with the spans
            if missing or names - want:
                errors.append(f"{name}.{kind}: missing {sorted(missing)}, "
                              f"undeclared {sorted(names - want)}")
            for metric, entry in w[kind].items():
                if (not isinstance(entry, dict)
                        or entry.get("unit") != declared[kind].get(metric)
                        or not all(isinstance(entry.get(f), number)
                                   for f in fields)):
                    errors.append(f"{name}.{kind}.{metric}: malformed entry")
        if not all(isinstance(fp, str) and len(fp) == 64
                   for fp in w["fingerprints"].values()):
            errors.append(f"{name}.fingerprints: not SHA-256 hex digests")
    if errors:
        raise ValueError("; ".join(errors))


def noise_floor(entry: Dict[str, float]) -> float:
    n = entry.get("n", 1)
    if n < 2 or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"]) / math.sqrt(n)


def verdict(a: Dict[str, float], b: Dict[str, float], bound: float,
            better: str, noise: float = 0.0) -> str:
    if noise > bound:
        return "unresolved"
    if not a["value"]:
        return "within-bound" if not b["value"] else "unresolved"
    worse_by = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def check_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> None:
    if a["smoke"] != b["smoke"]:
        raise Incomparable("one ledger ran smoke sizes, the other did not")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        fa = a["workloads"][name]["fingerprints"]
        fb = b["workloads"][name]["fingerprints"]
        differing = [s for s in sorted(set(fa) & set(fb)) if fa[s] != fb[s]]
        if differing or not set(fa) & set(fb):
            raise Incomparable(
                f"{name}: input fingerprints differ (seeds "
                f"{', '.join(differing) or 'disjoint'}) — the two runs "
                f"did not measure the same inputs")


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
            ) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """The report lines, and ``(workload, metric, verdict)`` for every
    bounded row."""
    check_comparable(a, b)
    lines: List[str] = []
    verdicts: List[Tuple[str, str, str]] = []

    def row(workload: str, name: str, ea: Dict[str, float],
            eb: Dict[str, float], bound: float, better: str) -> None:
        # The quartiles beside a simulated value say how seeds differ,
        # not how runs do: the same seeds give the same value again.
        noise = 0.0 if name.startswith("sim_") \
            else max(noise_floor(ea), noise_floor(eb))
        v = verdict(ea, eb, bound, better, noise)
        verdicts.append((workload, name, v))
        change = ((eb["value"] - ea["value"]) / abs(ea["value"]) * 100
                  if ea["value"] else 0.0)
        lines.append(
            f"  {name:22s} {ea['value']:13.6g} -> {eb['value']:13.6g} "
            f"{change:+7.2f}%  bound {bound * 100:4.1f}%  noise "
            f"{noise * 100:4.1f}%  {v}")

    for name in [w["name"] for w in spec["workloads"]]:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        lines.append(f"{name}:")
        for metric in spec["end_to_end"]:
            row(name, metric["name"], wa["end_to_end"][metric["name"]],
                wb["end_to_end"][metric["name"]], metric["bound"],
                metric["better"])
        for metric, bound in SCOPED_BOUNDS.items():
            ea, eb = wa["per_layer"][metric], wb["per_layer"][metric]
            if ea["value"] or eb["value"]:
                row(name, metric, ea, eb, bound, "lower")
        v = "worse" if wb["failed_ops_share"] > wa["failed_ops_share"] \
            else "within-bound"
        verdicts.append((name, "failed_ops_share", v))
        lines.append(f"  {'failed_ops_share':22s} "
                     f"{wa['failed_ops_share']:13.6g} -> "
                     f"{wb['failed_ops_share']:13.6g}"
                     f"{'':10s}any increase{'':13s}{v}")
        if wa["noisy"] or wb["noisy"]:
            lines.append("  (a run was flagged NOISY: its host rows are "
                         "not to be trusted)")
        lines.append("  per layer:")
        for metric in sorted(set(wa["per_layer"]) & set(wb["per_layer"])):
            if metric in SCOPED_BOUNDS:
                continue
            va = wa["per_layer"][metric]["value"]
            vb = wb["per_layer"][metric]["value"]
            if va or vb:
                change = f"{(vb - va) / abs(va) * 100:+7.2f}%" if va else "    new"
                lines.append(f"    {metric:44s} {va:13.6g} -> {vb:13.6g} "
                             f"{change}")
    return lines, verdicts
