"""The ledger's command line (from the repository root)::

    python -m benchmarks.ledger run --seed 0 --out ledger.json [--traced]
                                    [--workload NAME] [--smoke]
    python -m benchmarks.ledger compare A.json B.json
    python -m benchmarks.ledger aa [--dir DIR] [--smoke]
    python -m benchmarks.ledger fingerprints

``run`` measures each workload in a fresh process of its own
(``benchmarks/ledger/run.py``, the command ``BENCHMARK.json`` names), so
peak memory, imports and warm-up are per workload; with ``--traced`` a
second process per workload records the spans.  It prints every metric
by name with its unit and exits 1 if any output check failed.
``fingerprints`` recomputes ``fingerprints.json`` — only a benchmark
issue that means to change the inputs should commit its result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.ledger import run as runner
from benchmarks.ledger.compare import (SCHEMA, Incomparable, compare,
                                      validate_ledger)
from benchmarks.ledger.workloads import SIZES, WORKLOADS

BASELINE_SEEDS = tuple(range(0, 20)) + tuple(range(100, 120))
#: ``aa`` demands the two medians of a host metric within a tenth.
AA_HOST_AGREEMENT = 0.10
HOST_METRICS = ("setup_s", "host_req_per_s", "peak_rss_mb")


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
           out: Path) -> Dict[str, Any]:
    command = [sys.executable, str(runner.HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)] + (["--smoke"] if smoke else [])
    code = subprocess.run(command, check=False).returncode
    if code not in (0, 1) or not out.exists():
        raise SystemExit(f"ledger: {workload} (trace {trace}) exited {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(seed: int, seconds: float, workloads: List[str], traced: bool,
            smoke: bool, out: Path) -> Dict[str, Any]:
    ledger: Dict[str, Any] = {"schema": SCHEMA, "seed": seed,
                              "seconds": seconds, "smoke": smoke,
                              "workloads": {}}
    traces: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=".ledger-") as tmp:
        for name in workloads:
            part = Path(tmp) / f"{name}.json"
            record = _child(name, seed, seconds, 0, smoke, part)
            if traced:
                spans = _child(name, seed, seconds, 1, smoke, part)
                if spans["sim_digest"] != record["sim_digest"]:
                    record["problems"].append(
                        "the traced and the untraced process disagree on "
                        "the simulated metrics")
                    record["correct"] = False
                for key in ("per_layer", "shares", "traced_repeats"):
                    record[key] = spans[key]
                record["correct"] = record["correct"] and spans["correct"]
                record["problems"] += spans["problems"]
                record["fingerprints"].update(spans["fingerprints"])
                with open(part.with_suffix(".trace.json"),
                          encoding="utf-8") as fh:
                    traces[name] = json.load(fh)
            ledger["workloads"][name] = record
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    if traces:
        with open(out.with_suffix(".trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traces, fh)
            fh.write("\n")
    return ledger


def _load(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        ledger = json.load(fh)
    try:
        validate_ledger(ledger, runner.declared())
    except ValueError as err:
        raise SystemExit(f"ledger: {path} is not a valid ledger: {err}")
    return ledger


def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    ledger = run_all(args.seed, args.seconds, names, args.traced, args.smoke,
                     args.out)
    failed = [n for n, w in ledger["workloads"].items() if not w["correct"]]
    print(f"wrote {args.out}" + (f"; FAILED: {', '.join(failed)}"
                                 if failed else "; all output checks passed"))
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        lines, verdicts = compare(_load(args.a), _load(args.b),
                                  runner.declared())
    except Incomparable as err:
        print(f"refusing to compare: {err}")
        return 2
    print("\n".join(lines))
    worse = [f"{w}/{m}" for w, m, v in verdicts if v == "worse"]
    print("worse: " + (", ".join(worse) or "none"))
    return 1 if worse else 0


def cmd_aa(args: argparse.Namespace) -> int:
    args.dir.mkdir(parents=True, exist_ok=True)
    ledgers = [run_all(args.seed, args.seconds, list(WORKLOADS), False,
                       args.smoke, args.dir / f"{side}.json")
               for side in ("a", "b")]
    lines, verdicts = compare(ledgers[0], ledgers[1], runner.declared())
    print("\n".join(lines))
    problems = [f"{w}/{m}: {v}" for w, m, v in verdicts
                if v in ("worse", "unresolved")]
    for name in WORKLOADS:
        a, b = (ledger["workloads"][name] for ledger in ledgers)
        if not (a["correct"] and b["correct"]):
            problems.append(f"{name}: an output check failed")
        if a["sim_digest"] != b["sim_digest"]:
            problems.append(f"{name}: simulated metrics or exact counters "
                            f"differ between two runs of the same code")
        for metric in HOST_METRICS:
            va, vb = (w["end_to_end"][metric]["value"] for w in (a, b))
            if abs(vb - va) > AA_HOST_AGREEMENT * va:
                problems.append(f"{name}/{metric}: medians {va:.6g} and "
                                f"{vb:.6g} are more than a tenth apart")
    print("A/A: " + ("; ".join(problems) or "every metric within bound, "
                     "simulated metrics and counters bit-identical"))
    return 1 if problems else 0


def cmd_fingerprints(args: argparse.Namespace) -> int:
    table = {name: {str(seed): repeat(seed, SIZES[name][0],
                                      runner.make_timed(None)).fingerprint
                    for seed in BASELINE_SEEDS}
             for name, repeat in WORKLOADS.items()}
    with open(runner.HERE / "fingerprints.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote fingerprints of {len(BASELINE_SEEDS)} seeds for "
          f"{len(table)} workloads")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    seconds = runner.declared()["run_seconds"]

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=seconds,
                       help="timed seconds per workload (default: the "
                            "run_seconds of BENCHMARK.json)")
        p.add_argument("--smoke", action="store_true",
                       help="tiny sizes, for the self-tests")

    p = sub.add_parser("run", help="measure the workloads")
    common(p)
    p.add_argument("--out", type=Path, default=Path("ledger.json"))
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--traced", action="store_true",
                   help="also run each workload with spans recorded")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="compare two ledger files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("aa", help="run twice and compare the two runs")
    common(p)
    p.add_argument("--dir", type=Path, default=Path("ledger-aa"))
    p.set_defaults(fn=cmd_aa)
    p = sub.add_parser("fingerprints",
                       help="recompute fingerprints.json (re-baseline)")
    p.set_defaults(fn=cmd_fingerprints)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
