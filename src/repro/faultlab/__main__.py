"""FaultLab command line.

    python -m repro.faultlab list
    python -m repro.faultlab run   --scenario lossy_bursts --seed 7
                                   [--plan plan.json] [--json out.json]
    python -m repro.faultlab sweep [--quick] [--seeds N] [--base-seed K]
                                   [--scenario NAME ...] [--out report.json]

``sweep`` exits nonzero if any trial violated an invariant — that is the
whole contract of the ``faultlab-smoke`` CI job.  It writes each failing
trial's shrunk plan beside ``--out`` (or into the working directory) and
prints the replay command that runs it.  ``run`` runs a (scenario, seed)
pair exactly as the sweep did; with ``--plan`` it runs a shrunk plan
file instead of the seed-derived one.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.faultlab import report as reportlib
from repro.faultlab.explorer import run_trial, sweep
from repro.faultlab.plan import FaultPlan
from repro.faultlab.scenarios import SCENARIOS, scenario_names


def _print_trial(result) -> None:
    print(f"scenario : {result.scenario}")
    print(f"seed     : {result.seed}")
    print(f"plan     : {result.plan.describe()}")
    print(f"workload : {result.accepted}/{result.issued} ops accepted in "
          f"{result.sim_seconds:g} simulated seconds "
          f"({result.wall_seconds:.2f}s wall)")
    print(f"faults   : {result.faults_injected} injected, "
          f"{result.faults_cleared} cleared")
    if result.ok:
        print("verdict  : all invariants hold")
    else:
        print(f"verdict  : {len(result.violations)} violation(s)")
        for v in result.violations:
            print(f"  - {v}")


def _write_json(report, path) -> None:
    if path:
        reportlib.dump(report, path)
        print(f"report written to {path}")


def cmd_list(args) -> int:
    for name in scenario_names():
        scenario = SCENARIOS[name]
        tag = "" if scenario.in_sweep else "  [regression, not swept]"
        print(f"{name}{tag}")
        print(f"    {scenario.description}")
    return 0


def cmd_run(args) -> int:
    plan = None
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    result = run_trial(args.scenario, args.seed, plan=plan)
    _print_trial(result)
    _write_json(reportlib.trial_report(result), args.json)
    return 0 if result.ok else 1


def cmd_sweep(args) -> int:
    n_seeds = 3 if args.quick else args.seeds
    # "quick" and "full" name exactly the in-sweep registry x 3 or 8
    # seeds from 0; any other sweep is "custom".
    whole = args.base_seed == 0 and sorted(args.scenario or []) in (
        [], scenario_names(in_sweep_only=True))
    mode = {3: "quick", 8: "full"}.get(n_seeds, "custom") if whole \
        else "custom"
    # Each shrunk plan goes beside the report (or into the working
    # directory), where its replay command finds it.  The directory is
    # made before the first trial, so no sweep runs only to fail to write.
    plan_dir = os.path.dirname(args.out or "")
    if plan_dir:
        os.makedirs(plan_dir, exist_ok=True)
    result = sweep(scenarios=args.scenario or None, n_seeds=n_seeds,
                   base_seed=args.base_seed,
                   progress=None if args.quiet else print)
    print(f"\n{result.trials} trials over {len(result.scenarios)} scenarios "
          f"x {len(result.seeds)} seeds: "
          f"{result.accepted}/{result.issued} ops accepted, "
          f"{len(result.failures)} failing trial(s) "
          f"({result.wall_seconds:.1f}s wall)")
    for failure in result.failures:
        shrunk = failure.shrunk
        shrunk.plan_file = os.path.join(
            plan_dir, f"{shrunk.scenario}-seed{shrunk.seed}-plan.json")
        with open(shrunk.plan_file, "w", encoding="utf-8") as fh:
            fh.write(shrunk.plan.to_json())
        print(f"  FAIL {shrunk.scenario} seed={shrunk.seed}: "
              f"{failure.result.violations[0]}")
        print(f"       minimal plan: {shrunk.plan.describe()}")
        print(f"       replay: {shrunk.to_dict()['replay']}")
    _write_json(reportlib.sweep_report(result, mode), args.out)
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faultlab",
        description="Deterministic fault exploration for the BASE "
                    "reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    run_p = sub.add_parser("run", help="run one seeded trial, bit for "
                                       "bit as the sweep did")
    run_p.add_argument("--scenario", required=True, choices=scenario_names())
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--plan", metavar="PATH",
                       help="run this (e.g. shrunk) plan JSON instead of "
                            "the seed-derived one")
    run_p.add_argument("--json", metavar="PATH",
                       help="also write the JSON report")

    sweep_p = sub.add_parser("sweep",
                             help="run the scenario registry across seeds")
    sweep_p.add_argument("--quick", action="store_true",
                         help="3 seeds per scenario (the CI smoke setting)")
    sweep_p.add_argument("--seeds", type=int, default=8,
                         help="seeds per scenario (default 8)")
    sweep_p.add_argument("--base-seed", type=int, default=0)
    sweep_p.add_argument("--scenario", action="append",
                         choices=scenario_names(),
                         help="restrict to these scenarios (repeatable)")
    sweep_p.add_argument("--out", metavar="PATH",
                         help="write the JSON sweep report")
    sweep_p.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    return {"list": cmd_list, "run": cmd_run,
            "sweep": cmd_sweep}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
