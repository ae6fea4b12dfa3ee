"""CLI: run the wall-clock perf scenarios and emit a BENCH JSON report.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf [--quick] [--repeats N]
                                             [--out BENCH_6.json]
                                             [--curve-out openloop_curve.json]
                                             [--profile]
                                             [--profile-out profile_top25.txt]
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.harness import (
    BENCH_ID,
    extract_curve_artifact,
    profile_scenarios,
    run_all,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf")
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenario scales and fewer repeats "
                             "(CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override per-scenario repeat count "
                             "(closed-loop scenarios only)")
    parser.add_argument("--out", default=f"BENCH_{BENCH_ID}.json",
                        help="output path (default: %(default)s)")
    parser.add_argument("--curve-out", default="openloop_curve.json",
                        help="load-latency curve artifact path "
                             "(default: %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="also cProfile each closed-loop scenario and "
                             "write the top-25-by-cumulative-time artifact")
    parser.add_argument("--profile-out", default="profile_top25.txt",
                        help="profile artifact path (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_all(quick=args.quick, repeats=args.repeats,
                     progress=lambda line: print(line, file=sys.stderr))
    write_report(report, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    with open(args.curve_out, "w", encoding="utf-8") as fh:
        json.dump(extract_curve_artifact(report), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.curve_out}", file=sys.stderr)
    if args.profile:
        text = profile_scenarios(
            quick=args.quick,
            progress=lambda line: print(line, file=sys.stderr))
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.profile_out}", file=sys.stderr)
    for name, data in report["scenarios"].items():
        print(f"{name:16s} {data['requests_per_sec']:10.1f} req/s "
              f"{data['events_per_sec']:12.0f} events/s "
              f"p50 {data['wall_seconds_p50'] * 1e3:8.1f} ms "
              f"p95 {data['wall_seconds_p95'] * 1e3:8.1f} ms")
    fast = report["scenarios"]["read_heavy"]["fast_path"]
    print(f"read_heavy paths: {fast['read_only_rate']:.0%} read-only, "
          f"{fast['tentative_rate']:.0%} tentative, "
          f"{fast['accept_committed']} committed")
    ol = report["scenarios"]["open_loop"]
    print(f"open_loop: max sustainable {ol['max_sustainable_req_s']:.1f} "
          f"req/s (simulated) at p95 SLO {ol['slo_p95_seconds'] * 1e3:.1f} ms "
          f"(knee offered {ol['knee_offered_req_s']:.1f} req/s, "
          f"{len(ol['curve'])} sweep points)")
    ss = report["scenarios"]["sharded_scaling"]
    rates = ", ".join(f"{p['shards']}sh {p['sim_req_s']:.1f}"
                      for p in ss["sweep"])
    print(f"sharded_scaling: {ss['scaling_factor']:.2f}x simulated req/s "
          f"at {ss['sweep'][-1]['shards']} shards vs 1 ({rates})")
    er = report["scenarios"]["edge_read"]
    speedup = (er["requests_per_sec"]
               / report["scenarios"]["read_heavy"]["requests_per_sec"])
    print(f"edge_read: {speedup:.1f}x read_heavy req/s "
          f"({er['degraded_reads']} cache-served bounded-stale reads, "
          f"digest {er['record_digest'][:12]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
