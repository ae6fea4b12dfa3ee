#!/usr/bin/env python3
"""Run one ledger workload in this process and print its metrics.

This is the command ``BENCHMARK.json`` names::

    python3 benchmarks/ledger/run.py --workload kv_write --seed 0 \\
        --seconds 15 --trace 0

Shape of a run: one untimed warm-up repeat, then timed repeats, repeat
*i* on seed ``S+i``, each on a freshly built deployment, with
``gc.collect()`` between repeats and the collector off inside the timed
window.  Repeats continue until the windows add up to ``--seconds`` (and
at least ``SIM_REPEATS`` have run).  A window covers "first request
issued to last reply accepted / traffic drained" and nothing else;
everything outside it is set-up.  With ``--trace 1`` the run is
``SIM_REPEATS`` untraced repeats (for the exact counters) followed by
``TRACED_REPEATS`` repeats on the same seeds with spans recorded; that
part is sized by those constants, not by ``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 1 if an output check failed or the inputs' fingerprint changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} "
             f"is missing")
# Run as a script, ``sys.path[0]`` is this directory, whose ``trace.py``
# would shadow the standard library's; import through the package instead.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != HERE]

from benchmarks.ledger import metrics as M  # noqa: E402
from benchmarks.ledger.trace import LAYERS, Recorder  # noqa: E402
from benchmarks.ledger.workloads import (  # noqa: E402
    SIZES, WORKLOADS, Repeat, Timed, Window)

IMPORT_PROBES = 5
NOISY_DRIFT = 0.10          # quartile distance of the calibration samples
NOISY_CPU_WALL = 0.90
TRACE_REQUESTS_KEPT = 200


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, n: int) -> int:
        self.total += n
        return self.total


def calibrate() -> float:
    """Seconds a fixed loop takes now: the machine's speed at this
    instant.  The loop mixes what the simulator does all day — heap
    pushes and pops, dict updates keyed by tuples, small bytes objects,
    method calls, the odd SHA-256 — because a loop of bare arithmetic
    does not slow down when a neighbour contends for cache and memory,
    and the simulator does.  It uses nothing from the program."""
    start = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    table: Dict[Tuple[int, str], int] = {}
    cell = _Cell()
    for i in range(40_000):
        key = (i % 97, "k%d" % (i % 31))
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919 % 1000 / 1000.0, i))
        if i & 3 == 3:
            heapq.heappop(heap)
            heapq.heappop(heap)
        blob = b"B" + i.to_bytes(4, "big") + b"payload-bytes"
        if i & 7 == 0:
            hashlib.sha256(blob * 8).digest()
        cell.add(len(blob))
    return time.perf_counter() - start


def import_seconds(probes: int) -> List[float]:
    """How long a fresh interpreter takes to import the program and the
    ledger, at reference speed — work a change could move out of the
    timed window and into import time.  Measured in child processes,
    after this process has already imported (and so byte-compiled)
    everything, each probe between two calibration loops."""
    code = ("import sys, time; sys.path[:0] = [%r, %r]; "
            "t = time.perf_counter(); import benchmarks.ledger.metrics; "
            "print(time.perf_counter() - t)"
            % (str(ROOT / "src"), str(ROOT)))
    out = []
    after = calibrate()
    for _ in range(probes):
        before = after
        seconds = float(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=120).stdout)
        after = calibrate()
        out.append(M.at_reference(seconds, (before + after) / 2))
    return out


def make_timed(recorder: Optional[Recorder]) -> Timed:
    def timed(drive: Callable[[], None]) -> Window:
        gc.collect()
        gc.disable()
        try:
            before = calibrate()
            cpu = time.process_time()
            wall = time.perf_counter()
            if recorder is None:
                drive()
            else:
                recorder.window(drive)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
            return Window(wall, cpu, (before + calibrate()) / 2)
        finally:
            gc.enable()
    return timed


def _fingerprint_status(name: str, smoke: bool,
                        fingerprints: Dict[str, str]) -> str:
    with open(HERE / "fingerprints.json", encoding="utf-8") as fh:
        expected = json.load(fh).get(name, {})
    known = {seed: fp for seed, fp in fingerprints.items()
             if seed in expected and not smoke}
    if any(expected[seed] != fp for seed, fp in known.items()):
        return "mismatch"
    return "ok" if len(known) == len(fingerprints) else "unchecked"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False,
                 trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """Everything one process measures about one workload."""
    repeat_fn, size = WORKLOADS[name], SIZES[name][smoke]
    calibrate()                                       # warm the loop itself
    imports = median(import_seconds(1 if smoke else IMPORT_PROBES))

    def one(repeat_seed: int, recorder: Optional[Recorder] = None
            ) -> Tuple[Repeat, float]:
        gc.collect()
        start = time.perf_counter()
        repeat = repeat_fn(repeat_seed, size, make_timed(recorder))
        return repeat, time.perf_counter() - start

    one(seed)                                         # warm-up, discarded
    repeats: List[Repeat] = []
    walls: List[float] = []
    while (len(repeats) < M.SIM_REPEATS
           or (not trace and sum(r.window.wall for r in repeats) < seconds)):
        repeat, wall = one(seed + len(repeats))
        if len(repeats) >= M.SIM_REPEATS:
            repeat.metrics = None     # only the simulated rows need it
        repeats.append(repeat)
        walls.append(wall)

    traced: List[Repeat] = []
    recorder = Recorder()
    if trace:
        # Installed only now: the untraced repeats above ran the program
        # exactly as shipped.
        recorder.install()
        try:
            for i in range(M.TRACED_REPEATS):
                traced.append(one(seed + i, recorder)[0])
                traced[-1].metrics = None
        finally:
            recorder.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = M.end_to_end(repeats, walls, imports, peak_rss_mb)
    overhead = (median(r.window.wall for r in traced)
                / median(r.window.wall for r in repeats[:len(traced)])
                if traced else 0.0)
    exact = M.exact_layers(repeats)
    layers = dict(exact, **M.host_layers(
        repeats, [r.window.calibration for r in repeats + traced], overhead))
    if traced:
        layers.update(M.traced_layers(recorder, traced))

    everything = repeats + traced
    problems = sorted({f"seed {r.seed}: {p}" for r in everything
                       for p in r.problems})
    fingerprints = {str(r.seed): r.fingerprint for r in everything}
    status = _fingerprint_status(name, smoke, fingerprints)
    if status == "mismatch":
        problems.append("inputs changed — re-baseline through a benchmark "
                        "issue")
    spec = declared()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    cpu_wall = layers["bench.cpu_wall_ratio"]
    drift = layers["bench.calib_drift"]
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_ops_share": failed / attempted,
        "repeats": len(repeats), "sim_repeats": M.SIM_REPEATS,
        "traced_repeats": len(traced),
        "latency_samples": sum(r.latency_samples
                               for r in repeats[:M.SIM_REPEATS]),
        "fingerprints": fingerprints, "fingerprint_check": status,
        "sim_digest": M.sim_digest(e2e, exact, {
            str(r.seed): r.fingerprint for r in repeats[:M.SIM_REPEATS]}),
        "noisy": drift > NOISY_DRIFT or cpu_wall < NOISY_CPU_WALL,
        "end_to_end": {n: dict(entry, unit=units[n])
                       for n, entry in e2e.items()},
        "per_layer": {n: {"value": v, "unit": units[n]}
                      for n, v in layers.items()},
    }
    if traced:
        self_seconds = recorder.layer_self_seconds()
        record["shares"] = {layer: self_seconds[layer]
                            / recorder.window_seconds for layer in LAYERS}
        if trace_out is not None:
            _write_trace(trace_out, record, recorder,
                         sum(r.accepted for r in traced),
                         M.reference_scale(traced))
    return record


def _write_trace(path: Path, record: Dict[str, Any], recorder: Recorder,
                 accepted: int, reference_scale: float) -> None:
    """Per-span aggregates, the first span trees and request intervals,
    all in raw host seconds; ``reference_scale`` takes them to the
    reference speed the published metrics are at."""
    origin = min((s[4] for s in recorder.spans), default=0.0)
    payload = {
        "workload": record["workload"], "seed": record["seed"],
        "windows": recorder.windows,
        "window_seconds": recorder.window_seconds,
        "accepted": accepted,
        "reference_scale": reference_scale,
        "shares": record["shares"],
        "aggregates": [
            {"layer": layer, "name": name, "calls": int(stat[0]),
             "self_s": stat[1], "inclusive_s": stat[2]}
            for (layer, name), stat in sorted(recorder.stats.items())
            if stat[0]],
        "counts": dict(sorted(recorder.counts.items())),
        "spans": [
            {"id": sid, "parent": parent, "layer": layer, "name": name,
             "start_us": (start - origin) * 1e6, "end_us": (end - origin) * 1e6}
            for sid, parent, layer, name, start, end
            in sorted(recorder.spans)],
        "requests": [
            {"client_id": client, "request_id": request_id,
             "invoke_us": (start - origin) * 1e6,
             "accept_us": (end - origin) * 1e6}
            for client, request_id, start, end
            in recorder.requests[:TRACE_REQUESTS_KEPT]],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def report(record: Dict[str, Any]) -> str:
    """The human-readable table: every metric by name, with its unit."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"{record['repeats']} timed repeats "
        f"({record['sim_repeats']} feed the simulated rows, "
        f"{record['traced_repeats']} traced)"
        + ("  [smoke sizes]" if record["smoke"] else ""),
        "end-to-end (host rows: median, quartiles and n over repeats; "
        "sim rows: median over seeds):"]
    for name, entry in record["end_to_end"].items():
        lines.append(f"  {name:44s} {entry['value']:14.6g} {entry['unit']:9s}"
                     f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                     f"  n {entry['n']}")
    calib_ms = record["per_layer"]["bench.calib_ms"]["value"]
    lines.append(f"  host times are at reference speed: the calibration loop "
                 f"took {calib_ms:.1f} ms here, "
                 f"{M.CALIBRATION_REFERENCE_S * 1e3:.1f} ms at reference, so "
                 f"raw seconds read x{calib_ms / 1e3 / M.CALIBRATION_REFERENCE_S:.3f}")
    lines.append(f"  simulated latency percentiles are per repeat over "
                 f"{record['latency_samples'] // record['sim_repeats']} "
                 f"requests each ({record['latency_samples']} in all)")
    lines.append(f"  failed_ops_share {record['failed_ops_share']:.6g} "
                 f"({record['failed']} of {record['attempted']})")
    if record["workload"] == "sql_faults":
        lines.append("  open loop: arrivals are events at exact simulated "
                     "instants, so generator lateness is 0 by construction")
    lines.append("per layer" + ("" if record["trace"] else
                                " (exact and host rows; traced rows need "
                                "--trace 1)") + ":")
    for name, entry in sorted(record["per_layer"].items()):
        lines.append(f"  {name:44s} {entry['value']:14.6g} {entry['unit']}")
    if "shares" in record:
        lines.append("share of the traced window (self time):")
        for layer, share in record["shares"].items():
            lines.append(f"  {layer:44s} {100 * share:13.2f}%")
    lines.append(f"inputs: fingerprints {record['fingerprint_check']}; "
                 f"sim digest {record['sim_digest']}")
    if record["noisy"]:
        lines.append("NOISY: calibration spread "
                     f"{record['per_layer']['bench.calib_drift']['value']:.3f}"
                     ", cpu/wall "
                     f"{record['per_layer']['bench.cpu_wall_ratio']['value']:.3f}"
                     " — host metrics of this run are not to be trusted")
    for problem in record["problems"]:
        lines.append(f"FAILED CHECK: {problem}")
    return "\n".join(lines)


def result_line(record: Dict[str, Any]) -> str:
    """The driver's contract: exactly the declared metrics of one kind."""
    spec = declared()
    kind = "per_layer" if record["trace"] else "end_to_end"
    values = record[kind]
    names = [m["name"] for m in spec[kind]]
    if set(names) != set(values):
        raise SystemExit("ledger: BENCHMARK.json and the run disagree on "
                         f"{kind}: {sorted(set(names) ^ set(values))}")
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n]["value"],
                        "unit": values[n]["unit"]} for n in names}})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--out", type=Path,
                        help="also write the full record here as JSON (and, "
                             "with --trace 1, the spans beside it)")
    args = parser.parse_args(argv)
    trace_out = args.out.with_suffix(".trace.json") if args.out else None
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, trace_out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(report(record))
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
