"""The spans: complete where work happens, silent where it does not,
summing to the window, and gone afterwards."""

from __future__ import annotations

import sys

import pytest

from benchmarks.ledger import trace
from benchmarks.ledger.metrics import PER_REPEAT_LAYERS, PER_REQ_LAYERS
from benchmarks.ledger.workloads import WORKLOADS

# Captured at import, before any recorder was installed.
ORIGINALS = {(cls, attr): vars(cls)[attr]
             for _, cls, names, _ in trace.CLASS_SPANS
             for attr in names or trace._public_methods(cls)}
ORIGINAL_FUNCTIONS = {(module.__name__, attr): getattr(module, attr)
                      for _, module, attr, _ in trace.FUNCTION_SPANS}

KV = ("kv_write", "kv_read_mostly")
EVERYWHERE = tuple(WORKLOADS)

#: (layer, span name) -> the workloads on which it must record calls.
#: The module-level functions are the ones other modules bind with
#: ``from x import f``; a binding the recorder missed reads 0 here.
MUST_RECORD = {
    ("sim.scheduler", "Scheduler.step"): EVERYWHERE,
    ("sim.scheduler", "Scheduler.schedule"): EVERYWHERE,
    ("sim.scheduler", "Scheduler.run_until_idle_or"): EVERYWHERE,
    ("sim.scheduler", "Event.cancel"): EVERYWHERE,
    ("sim.network", "Network.send"): EVERYWHERE,
    ("sim.network", "Network.multicast"): EVERYWHERE,
    ("sim.network", "callback.Network._deliver"): EVERYWHERE,
    ("sim.node", "Node.charge"): EVERYWHERE,
    ("sim.node", "callback.Timer._fire"): ("sql_faults",),
    ("sim.tracing", "Tracer.emit"): EVERYWHERE,
    ("sim.tracing", "Tracer.observe_phase"): EVERYWHERE,
    ("sim.tracing", "Metrics.inc"): EVERYWHERE,
    ("sim.tracing", "Metrics.observe"): EVERYWHERE,
    ("crypto", "Authenticator.create"): EVERYWHERE,
    ("crypto", "Authenticator.verify"): EVERYWHERE,
    ("crypto", "digest"): EVERYWHERE,
    ("crypto", "digest_many"): EVERYWHERE,
    ("crypto", "sign"): ("sql_faults",),
    ("crypto", "verify_signature"): ("sql_faults",),
    ("encoding", "canonical"): EVERYWHERE,
    # The kv state machine memoises decoded ops, and the traced repeats
    # re-run seeds the untraced ones already decoded.
    ("encoding", "decanonical"): ("basefs_andrew", "sql_faults"),
    ("encoding", "XdrEncoder.getvalue"): ("basefs_andrew",),
    ("encoding", "XdrEncoder.pack_uint"): ("basefs_andrew",),
    ("bft.messages", "Message.body"): EVERYWHERE,
    ("bft.messages", "Message.digest"): EVERYWHERE,
    ("bft.replica", "Replica.on_message.request"): EVERYWHERE,
    ("bft.replica", "Replica.on_message.pre_prepare"): EVERYWHERE,
    ("bft.replica", "Replica.on_message.prepare"): EVERYWHERE,
    ("bft.replica", "Replica.on_message.commit"): EVERYWHERE,
    ("bft.replica", "Replica.on_message.checkpoint"): EVERYWHERE,
    ("bft.client", "BftClient.invoke"): EVERYWHERE,
    ("bft.client", "BftClient.handle_reply"): EVERYWHERE,
    ("bft.state", "InMemoryStateManager.execute"): KV,
    ("bft.state", "InMemoryStateManager.take_checkpoint"): KV,
    ("base", "AbstractStateManager.execute"): ("basefs_andrew", "sql_faults"),
    ("base", "AbstractStateManager.modify"): ("basefs_andrew", "sql_faults"),
    ("base", "AbstractStateManager.take_checkpoint"):
        ("basefs_andrew", "sql_faults"),
    ("service.kernel", "AbstractService.execute"):
        ("basefs_andrew", "sql_faults"),
    ("service.kernel", "ReplicatedChannel.call"): ("basefs_andrew",),
    ("nfs.wrapper", "NfsConformanceWrapper.get_obj"): ("basefs_andrew",),
    ("nfs.wrapper", "op.write"): ("basefs_andrew",),
    ("nfs.wrapper", "op.lookup"): ("basefs_andrew",),
    ("nfs.backends", "MemoryFilesystem.write"): ("basefs_andrew",),
    ("nfs.client", "NfsClient.write_file"): ("basefs_andrew",),
    ("sql.wrapper", "SqlConformanceWrapper.get_obj"): ("sql_faults",),
    ("sql.wrapper", "SqlConformanceWrapper.put_objs"): ("sql_faults",),
    ("sql.wrapper", "op.select"): ("sql_faults",),
    ("sql.wrapper", "op.update"): ("sql_faults",),
    ("sql.wrapper", "op.insert"): ("sql_faults",),
    ("sql.engine", "HashStoreEngine.update"): ("sql_faults",),
    ("sql.engine", "BTreeStoreEngine.update"): ("sql_faults",),
    ("bft.viewchange", "ViewChangeManager.start"): ("sql_faults",),
    ("bft.viewchange", "ViewChangeManager.on_view_change"): ("sql_faults",),
    ("bft.viewchange", "ViewChangeManager.on_new_view"): ("sql_faults",),
    ("bft.statetransfer", "StateTransferManager.initiate"): ("sql_faults",),
    ("bft.statetransfer", "StateTransferManager.on_fetch_meta"):
        ("sql_faults",),
    ("bft.statetransfer", "StateTransferManager.on_object_reply"):
        ("sql_faults",),
    ("bft.recovery", "RecoveryManager.start_recovery"): ("sql_faults",),
    ("workloads", "window"): EVERYWHERE,
    ("workloads", "callback._ClosedLoopClient.accepted"): KV,
    ("workloads", "callback.OpenLoopDriver._arrive"): ("sql_faults",),
}

#: Layers that must read exactly 0 on a workload.
IDLE_LAYERS = {
    "kv_write": ("base", "service.kernel", "nfs.wrapper", "nfs.backends",
                 "nfs.client", "sql.wrapper", "sql.engine", "bft.viewchange",
                 "bft.statetransfer", "bft.recovery", "other"),
    "kv_read_mostly": ("base", "service.kernel", "nfs.wrapper",
                       "nfs.backends", "nfs.client", "sql.wrapper",
                       "sql.engine", "bft.viewchange", "bft.statetransfer",
                       "bft.recovery", "other"),
    "basefs_andrew": ("bft.state", "sql.wrapper", "sql.engine",
                      "bft.viewchange", "bft.recovery", "other"),
    "sql_faults": ("bft.state", "nfs.wrapper", "nfs.backends", "nfs.client",
                   "other"),
}

#: Per-layer metrics that must read exactly 0 on a workload.
ZERO_METRICS = {
    name: ("encoding.xdr_bytes_per_req", "bft.viewchange.count",
           "base.modify_calls_per_req", "base.get_obj_calls_per_req",
           "base.put_objs_objects", "base.checkpoints_per_req",
           "service.kernel.execs_per_req", "nfs.client.wire_ops_per_call",
           "sim.network.dropped_share")
    for name in KV
}
ZERO_METRICS["basefs_andrew"] = ("bft.viewchange.count",
                                 "sim.network.dropped_share")
ZERO_METRICS["sql_faults"] = ("encoding.xdr_bytes_per_req",
                              "nfs.client.wire_ops_per_call")


def _calls(trace_file):
    return {(a["layer"], a["name"]): a["calls"]
            for a in trace_file["aggregates"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_record_where_the_table_says(traced, name):
    calls = _calls(traced[name][1])
    silent = [key for key, where in MUST_RECORD.items()
              if name in where and not calls.get(key)]
    assert not silent, f"no calls recorded on {name}: {silent}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_idle_layers_read_exactly_zero(traced, name):
    record, trace_file = traced[name]
    for layer in IDLE_LAYERS[name]:
        assert record["shares"][layer] == 0.0, layer
        assert not [a for a in trace_file["aggregates"]
                    if a["layer"] == layer], layer
    for metric in ZERO_METRICS[name]:
        assert record["per_layer"][metric]["value"] == 0, metric


def test_accept_paths_separate_the_kv_pair(traced):
    share = "bft.client.accept_read_only_share"
    assert traced["kv_write"][0]["per_layer"][share]["value"] == 0
    assert traced["kv_read_mostly"][0]["per_layer"][share]["value"] >= 0.6


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_sum_to_the_window(traced, name):
    record, trace_file = traced[name]
    assert sum(record["shares"].values()) == pytest.approx(1.0, abs=1e-9)
    # The same through the published metrics alone.
    layers = record["per_layer"]
    spans = [a for a in trace_file["aggregates"] if a["name"] == "window"]
    assert spans[0]["calls"] == record["traced_repeats"]
    total = sum(layers[f"{layer}.host_self_us_per_req"]["value"]
                for layer in PER_REQ_LAYERS) * trace_file["accepted"] / 1e6
    total += sum(layers[f"{layer}.host_self_ms_total"]["value"]
                 for layer in PER_REPEAT_LAYERS) * record["traced_repeats"] / 1e3
    assert total == pytest.approx(
        trace_file["window_seconds"] * trace_file["reference_scale"], rel=0.01)
    assert record["per_layer"]["bench.trace_overhead_x"]["value"] > 1.0


def test_span_trees_and_request_intervals_are_kept(traced):
    _, trace_file = traced["kv_write"]
    spans = {s["id"]: s for s in trace_file["spans"]}
    roots = [s for s in spans.values() if s["parent"] == 0]
    assert [r["name"] for r in roots] == ["window"]
    steps = [s for s in spans.values() if s["name"] == "Scheduler.step"]
    assert len(steps) == min(trace.CAPTURE_STEPS,
                             len(steps)) and steps
    for span in spans.values():
        if span["parent"]:
            parent = spans[span["parent"]]
            assert parent["start_us"] <= span["start_us"]
            assert span["end_us"] <= parent["end_us"]
    first = trace_file["requests"][0]
    assert first["client_id"].startswith("client")
    assert first["request_id"] == 1
    assert first["accept_us"] > first["invoke_us"]


def test_every_wrapper_is_gone_after_a_traced_run(traced):
    from repro.sim.scheduler import Scheduler
    assert vars(Scheduler)["step"] is ORIGINALS[(Scheduler, "step")]
    for (cls, attr), original in ORIGINALS.items():
        assert vars(cls)[attr] is original, f"{cls.__name__}.{attr}"
    for (module, attr), original in ORIGINAL_FUNCTIONS.items():
        assert getattr(sys.modules[module], attr) is original
    for _, cls in trace.OP_TABLES:
        for spec in cls.OPS.values():
            assert not hasattr(spec.method, "__ledger_original__")
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            left = [attr for attr, value in vars(module).items()
                    if hasattr(value, "__ledger_original__")]
            assert not left, f"{name} still binds wrappers: {left}"


def test_install_twice_is_refused():
    recorder = trace.Recorder()
    recorder.install()
    try:
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.uninstall()
