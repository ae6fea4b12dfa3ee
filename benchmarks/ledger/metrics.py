"""From repeats and spans to the named metrics of ``BENCHMARK.json``.

Two clocks, never mixed.  *Simulated* metrics (``sim_*``, and every
counter read from the simulation) are what the modelled system would
measure; they are a pure function of the seed.  *Host* metrics
(``host_*``, ``setup_s``, ``peak_rss_mb``) are how fast this Python
simulator runs, and are noisy.

Host times are reported **at reference speed**.  The machine this runs
on changes speed by 10-20% over minutes, which no amount of repeating
within a run averages out.  So the runner times a fixed calibration
loop just before and just after every window, and each host time is
scaled by ``CALIBRATION_REFERENCE_S / (what the loop took beside it)``:
seconds as they would have read had the machine run the loop at the
reference speed throughout.  The loop never touches the program, so a
change to the program cannot move it.

Simulated and exact values are computed over the first
:data:`SIM_REPEATS` repeats only (seeds ``S .. S+SIM_REPEATS-1``): how
many repeats fit into the run depends on host speed, and these values
must not.  Host values use every timed repeat.

"req" is one accepted client operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence

from repro.sim.metrics import Histogram, Metrics

from benchmarks.ledger.trace import Recorder
from benchmarks.ledger.workloads import Repeat

#: What the runner's calibration loop takes on the machine the bounds in
#: ``BENCHMARK.json`` were set on.  Only fixes the scale of host times.
CALIBRATION_REFERENCE_S = 0.050

#: Odd on purpose: the median over an odd number of seeds is one seed's
#: value, where an even number would average across the two modes of a
#: bimodal metric (``sql_faults`` drains in 6.00 or 6.16 simulated s).
SIM_REPEATS = 5
TRACED_REPEATS = 3

#: Simulated metrics only one workload has.  The driver's contract wants
#: every end-to-end metric from every workload, so these are reported
#: with the per-layer metrics (0 where they do not apply); ``compare``
#: still holds them to these bounds.  All are lower-is-better.
SCOPED_BOUNDS: Dict[str, float] = {
    "sim_overhead_ratio": 0.02,
    "sim_outage_s": 0.05,
    "sim_catchup_s": 0.05,
    "sim_recovery_s": 0.05,
}

PHASES = ("request_to_pre_prepare", "pre_prepare_to_prepared",
          "prepared_to_committed", "prepared_to_executed",
          "committed_to_executed", "request_to_reply")

#: Layers reported as host self time per request.  The three fault-path
#: layers run a handful of times per repeat, not per request, and are
#: reported as milliseconds per repeat instead.
PER_REQ_LAYERS = ("sim.scheduler", "sim.network", "sim.node", "sim.tracing",
                  "crypto", "encoding", "bft.messages", "bft.replica",
                  "bft.state", "bft.client", "base", "service.kernel",
                  "nfs.wrapper", "nfs.backends", "nfs.client",
                  "sql.wrapper", "sql.engine", "workloads")
PER_REPEAT_LAYERS = ("bft.viewchange", "bft.statetransfer", "bft.recovery")

REPLICA_KINDS = ("request", "pre_prepare", "prepare", "commit", "checkpoint")


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median with the quartiles beside it."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, _, q3 = quantiles(values, n=4)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0


def at_reference(seconds: float, calibration: float) -> float:
    """``seconds`` of host time, had the calibration loop beside them
    taken its reference time."""
    return seconds * CALIBRATION_REFERENCE_S / calibration


def end_to_end(repeats: List[Repeat], repeat_walls: List[float],
               import_seconds: float, peak_rss_mb: float
               ) -> Dict[str, Dict[str, float]]:
    """The seven end-to-end metrics, each with its quartiles.
    ``import_seconds`` is already at reference speed."""
    sim = repeats[:SIM_REPEATS]
    # A repeat's wall time holds its window and the two calibration
    # loops around it; the rest is set-up.
    setup = spread([at_reference(
        wall - r.window.wall - 2 * r.window.calibration, r.window.calibration)
        for wall, r in zip(repeat_walls, repeats)])
    for key in ("value", "q1", "q3"):
        setup[key] += import_seconds
    return {
        "setup_s": setup,
        "host_req_per_s": spread([
            r.accepted / at_reference(r.window.wall, r.window.calibration)
            for r in repeats]),
        "peak_rss_mb": spread([peak_rss_mb]),
        "sim_req_per_s": spread([r.accepted / r.sim_seconds for r in sim]),
        "sim_latency_p50_ms": spread([r.latency_p50 * 1e3 for r in sim]),
        "sim_latency_p99_ms": spread([r.latency_p99 * 1e3 for r in sim]),
        "sim_elapsed_s": spread([r.sim_seconds for r in sim]),
    }


def scoped(repeats: List[Repeat]) -> Dict[str, float]:
    sim = repeats[:SIM_REPEATS]
    return {name: median([r.scoped[name] for r in sim])
            if name in sim[0].scoped else 0.0 for name in SCOPED_BOUNDS}


def exact_layers(repeats: List[Repeat]) -> Dict[str, float]:
    """Per-layer rows read from public counters after untraced runs."""
    sim = repeats[:SIM_REPEATS]
    reqs = sum(r.accepted for r in sim)
    pool = Metrics()
    for r in sim:
        pool.merge(r.metrics)

    def c(name: str) -> float:
        return sum(r.counters.get(name, 0) for r in sim)

    def m(name: str) -> float:
        return pool.counter_value(name)

    def h(name: str) -> Optional[Histogram]:
        return pool.histograms.get(name)

    def p(name: str, q: float, scale: float) -> float:
        hist = h(name)
        return hist.percentile(q) * scale if hist else 0.0

    def mean(name: str) -> float:
        hist = h(name)
        return hist.mean if hist else 0.0

    accepts = {path: m(f"client.accept_{path}")
               for path in ("tentative", "read_only", "committed")}
    total_accepts = sum(accepts.values())
    view_change = h("phase.view_change")
    out = {
        "sim.scheduler.events_per_req": _ratio(c("events"), reqs),
        "sim.network.msgs_per_req": _ratio(c("msgs"), reqs),
        "sim.network.bytes_per_req": _ratio(c("bytes"), reqs),
        "sim.network.dropped_share": _ratio(c("dropped"), c("msgs")),
        "bft.replica.batch_size_mean": mean("batch.size"),
        "bft.replica.rollbacks": (m("bft.rollback")
                                  + m("bft.rollback_via_transfer")) / len(sim),
        "bft.client.retransmits_per_req": _ratio(
            m("client.retransmissions") + m("client.fast_retransmissions"),
            reqs),
        "bft.client.read_only_fallback_share": _ratio(
            m("client.read_only_fallbacks"), reqs),
        "bft.viewchange.count": c("views") / len(sim),
        "bft.viewchange.sim_ms_max":
            view_change.max * 1e3 if view_change else 0.0,
        "bft.statetransfer.objects_fetched":
            m("transfer.objects_fetched") / len(sim),
        "bft.statetransfer.sim_ms_p50": p("phase.state_transfer", 50, 1e3),
        "workloads.queue_wait_ms_p99": p("openloop.queue_wait", 99, 1e3),
        "nfs.client.wire_ops_per_call": _ratio(c("nfs_wire_ops"),
                                               c("nfs_api_calls")),
    }
    for path, n in accepts.items():
        out[f"bft.client.accept_{path}_share"] = _ratio(n, total_accepts)
    for phase in PHASES:
        out[f"bft.replica.sim_{phase}_us"] = p(f"phase.{phase}", 50, 1e6)
    for part in ("shutdown", "reboot", "restart", "fetch_and_check"):
        out[f"bft.recovery.sim_{part}_s"] = mean(f"recovery.{part}")
    out.update(scoped(repeats))
    return {name: _finite(value) for name, value in out.items()}


def reference_scale(repeats: List[Repeat]) -> float:
    """Factor taking host time summed over ``repeats`` to reference speed."""
    return _ratio(sum(at_reference(r.window.wall, r.window.calibration)
                      for r in repeats),
                  sum(r.window.wall for r in repeats))


def traced_layers(rec: Recorder, traced: List[Repeat]) -> Dict[str, float]:
    """Per-layer rows from the spans of the traced repeats."""
    reqs = sum(r.accepted for r in traced)
    sim_seconds = sum(r.sim_seconds for r in traced)
    scale = reference_scale(traced)
    self_seconds = {layer: seconds * scale
                    for layer, seconds in rec.layer_self_seconds().items()}
    counts = rec.counts

    def per_req(n: float) -> float:
        return _ratio(n, reqs)

    out = {f"{layer}.host_self_us_per_req": per_req(self_seconds[layer] * 1e6)
           for layer in PER_REQ_LAYERS}
    for layer in PER_REPEAT_LAYERS:
        out[f"{layer}.host_self_ms_total"] = \
            self_seconds[layer] * 1e3 / len(traced)

    busy = {node: _ratio(counts.get(f"sim.node.charge.replica{node}", 0.0),
                         sim_seconds) for node in range(4)}
    body_calls = rec.calls("bft.messages", "Message.body")
    get_obj = (rec.calls("nfs.wrapper", "NfsConformanceWrapper.get_obj")
               + rec.calls("sql.wrapper", "SqlConformanceWrapper.get_obj"))
    execs = rec.calls("service.kernel", "AbstractService.execute")
    out.update({
        "sim.scheduler.cancelled_share": _ratio(
            rec.calls("sim.scheduler", "Event.cancel"),
            rec.calls("sim.scheduler", "Scheduler.schedule")),
        "sim.node.primary_busy_share": busy[0],
        "sim.node.backup_busy_share_max": max(busy[1], busy[2], busy[3]),
        "sim.tracing.calls_per_req": per_req(rec.calls("sim.tracing")),
        "encoding.canonical_calls_per_req":
            per_req(rec.calls("encoding", "canonical")),
        "bft.messages.body_calls_per_req": per_req(body_calls),
        "bft.messages.digest_calls_per_req":
            per_req(rec.calls("bft.messages", "Message.digest")),
        "bft.messages.body_encode_share": _ratio(
            counts.get("bft.messages.body_encodes", 0), body_calls),
        "bft.replica.msgs_handled_per_req":
            per_req(rec.calls("bft.replica", "Replica.on_message")),
        "bft.client.replies_handled_per_req":
            per_req(rec.calls("bft.client", "BftClient.handle_reply")),
        "bft.statetransfer.meta_fetches": rec.calls(
            "bft.statetransfer", "StateTransferManager.on_fetch_meta")
            / len(traced),
        "base.modify_calls_per_req":
            per_req(rec.calls("base", "AbstractStateManager.modify")),
        "base.get_obj_calls_per_req": per_req(get_obj),
        "base.put_objs_objects":
            counts.get("base.put_objs_objects", 0) / len(traced),
        "base.checkpoints_per_req": per_req(
            rec.calls("base", "AbstractStateManager.take_checkpoint")),
        "base.checkpoint_host_us_per_req": per_req(rec.inclusive_seconds(
            "base", "AbstractStateManager.take_checkpoint") * scale * 1e6),
        "service.kernel.execs_per_req": per_req(execs),
        "service.kernel.error_reply_share": _ratio(
            counts.get("service.kernel.error_replies", 0), execs),
    })
    for counted in ("crypto.macs_created", "crypto.macs_verified",
                    "crypto.digests", "crypto.digest_bytes",
                    "crypto.signatures", "encoding.canonical_bytes",
                    "encoding.xdr_bytes"):
        out[f"{counted}_per_req"] = per_req(counts.get(counted, 0))
    kinds = {name: f"Replica.on_message.{name}" for name in REPLICA_KINDS}
    for kind, span in kinds.items():
        out[f"bft.replica.host_us_per_req.{kind}"] = per_req(
            rec.self_seconds("bft.replica", span) * scale * 1e6)
    out["bft.replica.host_us_per_req.other"] = per_req(sum(
        stat[1] for (layer, span), stat in rec.stats.items()
        if layer == "bft.replica" and span not in kinds.values())
        * scale * 1e6)
    return out


def sim_digest(e2e: Dict[str, Dict[str, float]], exact: Dict[str, float],
               fingerprints: Dict[str, str]) -> str:
    """One string over everything that must repeat bit for bit: the
    simulated end-to-end values, the exact counters, the inputs."""
    payload = {
        "sim": {name: repr(entry["value"]) for name, entry in e2e.items()
                if name.startswith("sim_")},
        "exact": {name: repr(value) for name, value in exact.items()},
        "inputs": fingerprints,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()


def host_layers(repeats: List[Repeat], calibrations: List[float],
                trace_overhead_x: float) -> Dict[str, float]:
    """Host-clock rows that need no tracing, and the run's validity flags."""
    wall = sum(r.window.wall for r in repeats)
    calibration = spread(calibrations)
    return {
        "sim.scheduler.host_us_per_event": _ratio(
            wall * reference_scale(repeats) * 1e6,
            sum(r.counters["events"] for r in repeats)),
        "bench.cpu_wall_ratio": _ratio(sum(r.window.cpu for r in repeats),
                                       wall),
        "bench.calib_ms": calibration["value"] * 1e3,
        "bench.calib_drift": (calibration["q3"] - calibration["q1"])
        / calibration["value"],
        "bench.trace_overhead_x": trace_overhead_x,
    }
