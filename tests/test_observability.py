"""The observability layer: ring-buffer tracing, histograms, metrics,
spans, and the per-phase latency instrumentation in the BFT stack."""

import gc
import json
import math
import re
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

from repro.base.mappings import SlotAllocator
from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.digest import digest
from repro.encoding.canonical import canonical
from repro.harness.report import (
    counters_table,
    histogram_table,
    main as report_main,
    phase_breakdown_table,
    run_selftest,
)
from repro.nfs.backends.vendors import ALL_BACKENDS
from repro.nfs.conformance import ConformanceRep
from repro.nfs.service import NFS_SERVICE
from repro.service.deploy import ReplicatedDeployment
from repro.service.registry import get_service
from repro.sim.metrics import Histogram, Metrics
from repro.sim.tracing import (CATALOGUE, EVENT_FIELDS, Tracer,
                               parse_catalogue)
from tests.conftest import make_kv_cluster, ring_tracer

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


# -- Tracer ring buffer -------------------------------------------------------

def test_ring_buffer_keeps_most_recent_events():
    tracer = ring_tracer(3)
    for i in range(10):
        tracer.emit(float(i), "n", "checkpoint_taken", i)
    assert len(tracer.events) == 3
    assert [e.detail["seq"] for e in tracer.events] == [7, 8, 9]
    assert tracer.dropped_events == 7
    assert tracer.counters["checkpoint_taken"] == 10  # counters keep counting


def test_ring_buffer_find_and_first_see_recent_window():
    tracer = ring_tracer(2)
    tracer.emit(1.0, "n", "prepared", 1)
    tracer.emit(2.0, "n", "committed", 1)
    tracer.emit(3.0, "n", "checkpoint_stable", 1)
    assert tracer.find("prepared") == []
    assert tracer.first("committed").time == 2.0
    assert [e.kind for e in tracer.events] == ["committed",
                                              "checkpoint_stable"]


def test_no_silent_drops_when_events_disabled():
    tracer = ring_tracer(0)
    for i in range(5):
        tracer.emit(float(i), "n", "rollback", i)
    assert len(tracer.events) == 0
    assert tracer.dropped_events == 5


def test_an_event_is_one_tuple_in_catalogue_order():
    tracer = Tracer()
    fields = (7, "c0", 3, True, b"d" * 32)
    tracer.emit(1.5, "r0", "executed", *fields)
    (event,) = tracer.events
    assert event == (1.5, "r0", "executed") + fields
    assert (event.time, event.source, event.kind) == (1.5, "r0", "executed")
    assert event.detail == dict(zip(EVENT_FIELDS["executed"], fields))
    assert not hasattr(event, "__dict__")
    assert not tracer.events.overflow      # it was packed into its slot


# -- the packed ring: every kind and every overflow reads back exactly ----------

#: A value of each wire type, well inside its range.
SAMPLES = {"int": -(2 ** 40), "str": "replica1", "bool": False,
           "float": 0.125, "digest": bytes(range(32))}


def _typed(event):
    return [(value, type(value)) for value in event]


def _reads_back(tracer, emitted):
    """Every reader returns ``emitted``, value for value and type for type."""
    kind = emitted[2]
    assert [_typed(e) for e in tracer.events] == [_typed(emitted)]
    assert [_typed(e) for e in tracer.find(kind, emitted[1])] \
        == [_typed(emitted)]
    assert _typed(tracer.first(kind)) == _typed(emitted)
    detail = tracer.first(kind).detail
    assert list(detail) == list(EVENT_FIELDS[kind])
    assert [(v, type(v)) for v in detail.values()] == _typed(emitted)[3:]


@pytest.mark.parametrize("kind", sorted(EVENT_FIELDS))
def test_every_kind_round_trips_through_its_slot(kind):
    fields = tuple(SAMPLES[wire]
                   for _, wire in parse_catalogue(CATALOGUE)[kind])
    tracer = Tracer()
    tracer.emit(2.5, "replica0", kind, *fields)
    _reads_back(tracer, (2.5, "replica0", kind) + fields)
    assert not tracer.events.overflow


class _Evidence:
    pass


OVERFLOWS = {
    "none": (1.0, "r0", "edge_reply", 0, "mode", None, bytes(32), None),
    "an object": (1.0, "r0", "edge_reply", 0, "mode", 0.5, bytes(32),
                  _Evidence()),
    "short digest": (1.0, "r0", "executed", 1, "c0", 2, True, b"d"),
    "long digest": (1.0, "r0", "result_accepted", 2, bytes(33)),
    "digest not bytes": (1.0, "r0", "result_accepted", 2, bytearray(32)),
    "int above int64": (1.0, "r0", "prepared", 2 ** 63),
    "int below int64": (1.0, "r0", "prepared", -(2 ** 63) - 1),
    "bool for int": (1.0, "r0", "prepared", True),
    "int for bool": (1.0, "faultlab", "fault_cleared", "f", 1),
    "int for float": (1.0, "r0", "recovery_complete", 1, 2),
    "int time": (1, "r0", "prepared", 2),
    "non-str source": (1.0, 3, "prepared", 2),
    "non-str string": (1.0, "r0", "execute_error", None),
}


@pytest.mark.parametrize("cause", sorted(OVERFLOWS))
def test_a_value_its_wire_type_cannot_hold_overflows_whole(cause):
    emitted = OVERFLOWS[cause]
    tracer = Tracer()
    tracer.emit(*emitted)
    assert list(tracer.events.overflow) == [0]
    _reads_back(tracer, emitted)


def test_a_new_string_once_the_table_is_full_overflows():
    """A code is 2 bytes and 0 is unused: 65 535 strings, "r0" one."""
    tracer = ring_tracer(8)
    for i in range(65_534):
        tracer.emit(1.0, "r0", "execute_error", f"E{i}")
    assert not tracer.events.overflow
    tracer.emit(2.0, "r0", "execute_error", "one too many")
    tracer.emit(3.0, "r0", "execute_error", "E7")     # already has a code
    tracer.emit(4.0, "r1", "prepared", 5)             # a new source
    assert sorted(tracer.events.overflow) == [65_534, 65_536]
    assert list(tracer.events)[-3:] == [
        (2.0, "r0", "execute_error", "one too many"),
        (3.0, "r0", "execute_error", "E7"), (4.0, "r1", "prepared", 5)]


def _mixed_stream(count):
    """Events alternating between packed and overflowing ones."""
    for i in range(count):
        if i % 3 == 2:
            yield (float(i), "r0", "prepared", 2 ** 64 + i)      # overflows
        elif i % 3 == 1:
            yield (float(i), f"r{i % 4}", "executed", i, "c0", i, i % 2 == 0,
                   bytes([i % 256]) * 32)
        else:
            yield (float(i), "r1", "fault_cleared", f"f{i}", True)


@pytest.mark.parametrize("max_events", [1, 2, 3, 5])
def test_ring_order_after_a_wrap_matches_a_deque(max_events):
    tracer, reference = ring_tracer(max_events), deque(maxlen=max_events)
    for count, event in enumerate(_mixed_stream(4 * max_events + 3), 1):
        tracer.emit(*event)
        reference.append(event)
        assert [_typed(e) for e in tracer.events] \
            == [_typed(e) for e in reference]
        assert len(tracer.events) == len(reference)
        assert tracer.dropped_events == count - len(reference)
        assert len(tracer.events.overflow) <= max_events
        assert tracer.find("prepared") == [e for e in reference
                                           if e[2] == "prepared"]
    tracer.clear()
    assert (list(tracer.events), tracer.dropped_events) == ([], 0)
    assert not tracer.events.overflow and not tracer.events.buf
    for event in _mixed_stream(max_events):
        tracer.emit(*event)
    assert list(tracer.events) == list(_mixed_stream(max_events))
    assert tracer.dropped_events == 0


@pytest.mark.parametrize("kind,fields", [
    ("no_such_kind", ()), ("executed", (7, "c0", 3, True)), ("rollback", ())])
def test_record_refuses_an_undeclared_kind_or_a_wrong_field_count(kind,
                                                                 fields):
    tracer = ring_tracer(0)
    with pytest.raises(ValueError):
        tracer.emit(1.0, "n", kind, *fields)
    assert not tracer.counters and tracer.dropped_events == 0


def test_clear_resets_drops_and_metrics():
    tracer = ring_tracer(1)
    tracer.emit(1.0, "n", "prepared", 1)
    tracer.emit(2.0, "n", "committed", 1)
    tracer.observe("x", 1.0)
    assert tracer.dropped_events == 1
    tracer.clear()
    assert tracer.dropped_events == 0
    assert not tracer.events
    assert not tracer.metrics.histograms


def test_observe_feeds_metrics_histogram():
    tracer = Tracer()
    tracer.observe("lap", 0.5)
    tracer.observe("lap", 1.5)
    hist = tracer.metrics.histograms["lap"]
    assert (hist.count, hist.min, hist.max) == (2, 0.5, 1.5)
    assert hist.mean == pytest.approx(1.0)


# -- Histogram ----------------------------------------------------------------

def test_histogram_aggregates_and_percentiles():
    hist = Histogram("h")
    for v in range(1, 101):
        hist.observe(float(v))
    assert hist.count == 100
    assert hist.sum == pytest.approx(5050.0)
    assert hist.mean == pytest.approx(50.5)
    assert hist.min == 1.0 and hist.max == 100.0
    assert hist.percentile(50) == 50.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0
    assert hist.percentile(0) == 1.0


def test_histogram_empty_is_nan_not_zero():
    hist = Histogram("h")
    assert math.isnan(hist.mean)
    assert math.isnan(hist.percentile(50))
    summary = hist.summary()
    assert summary["count"] == 0
    assert math.isnan(summary["mean"])


def test_histogram_bounded_samples_exact_aggregates():
    hist = Histogram("h", max_samples=8)
    for v in range(1000):
        hist.observe(float(v))
    assert hist.count == 1000           # exact even past the sample cap
    assert hist.max == 999.0
    assert len(hist._samples) == 8      # memory stays bounded
    with pytest.raises(ValueError):
        hist.percentile(101)


# -- Metrics registry ---------------------------------------------------------

def test_metrics_counters_gauges_histograms():
    m = Metrics()
    m.inc("ops")
    m.inc("ops", 4)
    m.observe("lat", 0.25)
    assert m.counter_value("ops") == 5
    assert m.counter_value("missing") == 0
    assert m.histogram("lat").count == 1


def test_metrics_json_export_round_trips():
    m = Metrics()
    m.inc("ops", 3)
    m.observe("lat", 0.5)
    exported = json.loads(m.to_json())
    assert exported["counters"]["ops"] == 3
    assert exported["histograms"]["lat"]["count"] == 1
    assert exported["histograms"]["lat"]["p50"] == 0.5
    # NaN (empty histogram) must export as null, not break JSON.
    m.histogram("empty")
    assert json.loads(m.to_json())["histograms"]["empty"]["mean"] is None


def test_metrics_merge():
    a, b = Metrics(), Metrics()
    a.inc("ops", 2)
    b.inc("ops", 3)
    a.observe("lat", 1.0)
    b.observe("lat", 3.0)
    a.merge(b)
    assert a.counter_value("ops") == 5
    assert a.histogram("lat").count == 2
    assert a.histogram("lat").mean == pytest.approx(2.0)


def capped_metrics(name, max_samples):
    """A registry whose histogram ``name`` keeps ``max_samples`` samples
    (the cap is the histogram's own, not the registry's)."""
    metrics = Metrics()
    metrics.histograms[name] = Histogram(name, max_samples=max_samples)
    return metrics


def test_merge_into_full_histogram_still_absorbs_samples():
    """Regression: merge used to stop copying the other registry's
    samples once the destination buffer was full, so merged percentiles
    silently ignored every late source.  It must overwrite round-robin
    exactly as ``observe`` does."""
    a = capped_metrics("lat", 4)
    b = capped_metrics("lat", 4)
    for _ in range(4):
        a.observe("lat", 1.0)       # destination buffer now full
    for _ in range(4):
        b.observe("lat", 100.0)
    a.merge(b)
    hist = a.histogram("lat")
    assert hist.count == 8
    assert hist.sum == pytest.approx(404.0)
    assert hist.max == 100.0
    # The buffer kept rotating: the merged percentile sees b's samples
    # (before the fix, p95 stayed at 1.0 forever).
    assert hist.percentile(95) == 100.0


@pytest.mark.parametrize("mine", [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0), ()])
@pytest.mark.parametrize("theirs", [(9.0,), (9.0, 10.0, 11.0, 12.0, 13.0)])
def test_merge_equals_observing_the_other_registrys_samples(mine, theirs):
    """Regression: once the buffer was full, merge wrote the other
    registry's i-th sample one slot behind where ``observe`` puts it
    (A = 1, 2, 3, 4 merged with B = 9 gave 9, 2, 3, 4, not 1, 9, 3, 4)."""
    merged = capped_metrics("lat", 4)
    observed = capped_metrics("lat", 4)
    other = Metrics()
    for v in mine:
        merged.observe("lat", v)
        observed.observe("lat", v)
    for v in theirs:
        other.observe("lat", v)
        observed.observe("lat", v)
    merged.merge(other)
    got, want = merged.histogram("lat"), observed.histogram("lat")
    assert got._samples == want._samples
    assert (got.count, got.sum, got.min, got.max) == \
        (want.count, want.sum, want.min, want.max)


def test_merge_with_prefix_namespaces_every_metric():
    a, b = Metrics(), Metrics()
    b.inc("requests", 7)
    b.observe("phase.commit", 0.5)
    a.merge(b, prefix="shard1.")
    assert a.counter_value("shard1.requests") == 7
    assert a.counter_value("requests") == 0
    assert a.histogram("shard1.phase.commit").count == 1
    assert "phase.commit" not in a.histograms


def test_prefixed_merge_preserves_percentiles_bit_for_bit():
    """A sharded deployment's aggregate must report each group's
    percentiles exactly as the group recorded them — the prefix merge
    into an empty registry carries every retained sample unchanged."""
    source = Metrics()
    for i in range(1000):
        source.observe("lat", (i * 37 % 1000) / 10.0)
    merged = Metrics()
    merged.merge(source, prefix="shard0.")
    original = source.histogram("lat")
    copied = merged.histogram("shard0.lat")
    assert copied.count == original.count
    assert copied.sum == original.sum
    assert copied.min == original.min and copied.max == original.max
    for p in (0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0):
        assert copied.percentile(p) == original.percentile(p)


def test_prefixed_merge_keeps_identically_named_shards_apart():
    shard0, shard1 = Metrics(), Metrics()
    shard0.inc("executed", 10)
    shard1.inc("executed", 4)
    shard0.observe("phase.commit", 1.0)
    shard1.observe("phase.commit", 9.0)
    total = Metrics()
    total.merge(shard0, prefix="shard0.")
    total.merge(shard1, prefix="shard1.")
    assert total.counter_value("shard0.executed") == 10
    assert total.counter_value("shard1.executed") == 4
    assert total.histogram("shard0.phase.commit").mean == 1.0
    assert total.histogram("shard1.phase.commit").mean == 9.0


def test_merge_partially_full_buffer_appends_then_rotates():
    a = capped_metrics("lat", 4)
    b = capped_metrics("lat", 4)
    for v in (1.0, 2.0):
        a.observe("lat", v)
    for v in (10.0, 20.0, 30.0):
        b.observe("lat", v)
    a.merge(b)
    hist = a.histogram("lat")
    assert hist.count == 5
    assert len(hist._samples) == 4              # memory stays bounded
    assert 30.0 in hist._samples                # the overflow wrapped in


# -- protocol phase instrumentation -------------------------------------------

def test_normal_case_populates_phase_histograms():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    for i in range(10):
        client.call(put(i % 8, b"v%d" % i))
    metrics = cluster.metrics
    # With tentative execution on (the default), execution happens at
    # prepared time, so the fast-path phase replaces committed_to_executed.
    for phase in ("request_to_pre_prepare", "pre_prepare_to_prepared",
                  "prepared_to_committed", "prepared_to_executed",
                  "request_to_reply"):
        hist = metrics.histograms.get(f"phase.{phase}")
        assert hist is not None and hist.count > 0, phase
    # The client saw every op end-to-end; latencies are causally ordered
    # (a request cannot reach the client faster than it committed).
    e2e = metrics.histogram("phase.request_to_reply")
    assert e2e.count == 10
    assert e2e.min > 0
    assert cluster.metrics.counter_value("client.requests") == 10
    assert cluster.tracer.dropped_events == 0


def test_view_change_duration_recorded():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    client.call(put(0, b"survived"))
    vc = cluster.metrics.histograms.get("phase.view_change")
    assert vc is not None and vc.count >= 1
    assert vc.min > 0


def test_state_transfer_duration_recorded():
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    for i in range(12):
        client.call(put(i % 16, b"w%d" % i))
    cluster.network.heal_all()
    for i in range(4):
        client.call(put(i % 16, b"x%d" % i))
    cluster.run(5.0)
    st = cluster.metrics.histograms.get("phase.state_transfer")
    assert st is not None and st.count >= 1
    assert cluster.metrics.counter_value("transfer.objects_fetched") > 0


def test_recovery_breakdown_recorded():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=1.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"r%d" % i))
    cluster.run(1.0)
    cluster.replicas[2].recovery.start_recovery()
    cluster.run(10.0)
    metrics = cluster.metrics
    assert metrics.counter_value("recovery.completed") == 1
    assert metrics.histogram("recovery.reboot").mean == pytest.approx(1.0)
    total = metrics.histogram("recovery.total").mean
    parts = sum(metrics.histogram(f"recovery.{p}").mean
                for p in ("shutdown", "reboot", "restart", "fetch_and_check"))
    assert total == pytest.approx(parts)


# -- request lifecycle events (docs/OBSERVABILITY.md) -------------------------

LIFECYCLE_FIELDS = {
    "executed": {"seq", "client", "request_id", "tentative", "result"},
    "read_only_executed": {"seq", "client", "request_id", "result"},
    "result_accepted": {"request_id", "result"},
    "rollback": {"seq"},
    "transfer_complete": {"seq", "objects"},
}


def _kv_group(**cfg):
    cluster = make_kv_cluster(**cfg)
    return (cluster, cluster.add_client("client0"),
            [put(i, b"v%d" % i) for i in range(5)], get(0))


def _sql_group(**cfg):
    deployment = ReplicatedDeployment.build(get_service("sql"),
                                            config=BftConfig(**cfg))
    writes = [canonical(("create_table", "t", ("id", "val"), "id"))] + [
        canonical(("insert", "t", (i, f"v{i}"))) for i in range(4)]
    return (deployment.cluster, deployment.sync, writes,
            canonical(("select", "t", 0)))


@pytest.mark.parametrize("build", [_kv_group, _sql_group])
def test_request_lifecycle_events_carry_their_documented_fields(build):
    cluster, client, writes, read = build(checkpoint_interval=2,
                                          batch_max=1)
    for op in writes[:4]:
        client.call(op)
    reply = client.call(read, read_only=True)
    cluster.run(1.0)
    tracer = cluster.tracer
    assert tracer.find("result_accepted")[-1].detail["result"] == \
        digest(reply)

    # One tentative execution at the victim, undone in place; then the
    # same again with the local checkpoint gone, repaired by transfer.
    victim = cluster.replicas[1]
    stable = victim.last_stable

    def no_commits(src, dst, msg):
        return not (dst == victim.node_id
                    and getattr(msg, "kind", "") == "commit")
    cluster.network.add_filter(no_commits)
    client.call(writes[4])
    assert victim.last_executed == stable + 1
    assert victim.rollback_to_stable() is True
    victim.state.discard_checkpoints_below(stable + 1)
    assert victim.rollback_to_stable() is False
    cluster.network.remove_filter(no_commits)
    cluster.run(1.0)
    assert tracer.dropped_events == 0

    for kind, fields in LIFECYCLE_FIELDS.items():
        events = tracer.find(kind)
        assert events, kind
        for e in events:
            assert set(e.detail) == fields, (kind, e.detail)

    # What a client accepted is what f+1 replicas say they replied.
    executions = tracer.find("executed") + tracer.find("read_only_executed")
    accepted = tracer.find("result_accepted")
    assert len(accepted) == 6
    for a in accepted:
        backers = {e.source for e in executions
                   if (e.detail["client"], e.detail["request_id"],
                       e.detail["result"])
                   == (a.source, a.detail["request_id"], a.detail["result"])}
        assert len(backers) >= cluster.config.weak_quorum, a


EDGE_REPLY_FIELDS = {"shard", "mode", "bound", "result", "evidence"}


def test_edge_reply_events_carry_their_documented_fields():
    """An edge tier in front of a kv group leaves one ``edge_reply`` per
    served read in the ring the lifecycle kinds go to."""
    from repro.edge.tier import EdgeTier
    cluster, client, writes, read = _kv_group()
    for op in writes:
        client.call(op)
    tier = EdgeTier.for_cluster(cluster)
    replies = [tier.read(read), tier.read(get(1))]
    events = cluster.tracer.find("edge_reply")
    assert [e.source for e in events] == [tier.ports[0].node.node_id] * 2
    for event, reply in zip(events, replies):
        assert set(event.detail) == EDGE_REPLY_FIELDS
        assert event.detail == {
            "shard": 0, "mode": reply.mode, "bound": reply.staleness_bound,
            "result": digest(reply.result), "evidence": reply.evidence}
    assert all(cluster.tracer.find(kind) for kind in LIFECYCLE_FIELDS
               if kind not in ("rollback", "transfer_complete"))


def test_lifecycle_table_field_lists_are_the_catalogue():
    """docs/OBSERVABILITY.md's lifecycle table lists each kind's fields in
    emission order with their wire types; those are ``CATALOGUE``'s."""
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "OBSERVABILITY.md").read_text(encoding="utf-8")
    table = doc.split("## Request lifecycle events")[1].split("\n## ")[0]
    rows = {m.group(1): tuple(re.findall(r"`(\w+)` (\w+)", m.group(2)))
            for m in re.finditer(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|", table,
                                 re.M)}
    assert set(rows) == set(LIFECYCLE_FIELDS) | {"edge_reply"}
    declared = parse_catalogue(CATALOGUE)
    assert rows == {kind: declared[kind] for kind in rows}
    assert all(set(EVENT_FIELDS[kind]) == fields
               for kind, fields in LIFECYCLE_FIELDS.items())


# -- what the ring and the histograms keep alive ------------------------------

#: Bytes the ring may retain per event, and a histogram per retained
#: sample, on a kv group.  An event is one 64-byte slot, and a ring that
#: has not wrapped runs at most a seventh (or 256 slots) ahead of its
#: events; a sample is one double.  A tuple per event (about 135 bytes
#: on CPython 3.11) or a boxed float per sample (about 32) fails these.
RING_BYTES_PER_EVENT = 75
HISTOGRAM_BYTES_PER_SAMPLE = 16


def _bytes_freed_by(action) -> int:
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    action()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def test_ring_keeps_a_slot_per_event_and_histograms_a_double_per_sample():
    tracemalloc.start()
    try:
        cluster = make_kv_cluster(checkpoint_interval=16)
        client = cluster.add_client("client0")
        for i in range(800):
            client.call(put(i % 64, b"v%d" % i))
        cluster.run(0.5)
        tracer = cluster.tracer
        events = len(tracer.events)
        samples = sum(len(hist._samples)
                      for hist in tracer.metrics.histograms.values())
        ring = _bytes_freed_by(tracer.events.clear)
        histograms = _bytes_freed_by(tracer.metrics.clear)
    finally:
        tracemalloc.stop()
    assert tracer.dropped_events == 0
    assert events > 10_000 and samples > 10_000
    assert ring / events <= RING_BYTES_PER_EVENT, ring / events
    assert histograms / samples <= HISTOGRAM_BYTES_PER_SAMPLE, \
        histograms / samples


def test_a_full_ring_of_the_largest_events_keeps_64_bytes_each():
    """The worst case for the tuple ring: every event an ``executed``
    whose digest and ints (above 2**31, so never cached) only the ring
    would hold.  A full ring keeps its buffer and nothing per event."""
    events = 5_000
    tracemalloc.start()
    try:
        tracer = ring_tracer(events)
        for i in range(2 * events):
            tracer.emit(i / 7, "replica0", "executed", 2 ** 40 + i, "client0",
                        2 ** 33 + i, i % 2 == 0, digest(b"%d" % i))
        ring = _bytes_freed_by(tracer.events.clear)
    finally:
        tracemalloc.stop()
    assert tracer.dropped_events == events
    assert ring <= 64 * events + 2048, ring - 64 * events


# -- what a fresh BASEFS replica keeps per abstract slot -----------------------

#: Bytes a fresh 4096-slot conformance array and slot allocator may hold
#: per slot.  The array is a pointer per slot plus its allocator; the
#: allocator is a generation pointer and a queued byte per slot.  An
#: object per slot (a free entry, a boxed free index on the heap, 28
#: bytes or more) fails these.
REP_BYTES_PER_SLOT = 18
ALLOCATOR_BYTES_PER_SLOT = 10


def test_a_fresh_conformance_array_keeps_no_object_per_slot():
    slots = 4096
    tracemalloc.start()
    try:
        reps, allocators = [ConformanceRep(slots)], [SlotAllocator(slots)]
        rep = _bytes_freed_by(reps.clear)
        allocator = _bytes_freed_by(allocators.clear)
    finally:
        tracemalloc.stop()
    assert rep / slots <= REP_BYTES_PER_SLOT, rep / slots
    assert allocator / slots <= ALLOCATOR_BYTES_PER_SLOT, allocator / slots


def test_equal_initial_leaves_share_one_digest_object():
    """Every free slot of a fresh BASEFS replica has the same initial
    value; its leaves hold one digest object, not one per slot."""
    group = ReplicatedDeployment.build(NFS_SERVICE, list(ALL_BACKENDS))
    for replica in group.replicas:
        leaves = [replica.state.tree.leaf_digest(i)
                  for i in range(replica.state.size)]
        assert len(leaves) == 4096
        assert len({id(leaf) for leaf in leaves}) == len(set(leaves)) == 2


# -- rendering and the smoke target -------------------------------------------

def test_phase_breakdown_table_renders_in_protocol_order():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    for i in range(5):
        client.call(put(i, b"v"))
    table = cluster.phase_report()
    lines = table.splitlines()
    order = [line.split()[0] for line in lines[3:] if line.strip()]
    assert order.index("pre_prepare_to_prepared") \
        < order.index("prepared_to_executed") \
        < order.index("prepared_to_committed") \
        < order.index("request_to_reply")


def test_histogram_and_counter_tables_render_empty_registries():
    m = Metrics()
    assert "(no rows)" in histogram_table(m, "empty")
    assert "(no rows)" in counters_table(m)
    assert "(no rows)" in phase_breakdown_table(m)


def test_report_selftest_end_to_end(capsys):
    metrics = run_selftest(ops=10, verbose=True)
    out = capsys.readouterr().out
    assert "Per-phase latency breakdown" in out
    assert "client.requests" in out
    assert metrics.counter_value("client.requests") == 15


def test_report_selftest_cli_exits_zero(capsys):
    """``python -m repro.harness.report --selftest`` as CI used to run it."""
    assert report_main(["--selftest", "--quiet"]) == 0
    assert capsys.readouterr().out == "selftest: ok\n"
