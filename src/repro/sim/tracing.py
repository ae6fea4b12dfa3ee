"""Structured event tracing, counters, and the metrics registry.

The :class:`Tracer` is the single observability object shared by a
simulated cluster: protocol code emits events and per-phase latency
observations into it, and the benchmark harness reads counters (MAC ops,
digests, messages), the bounded event ring, and the
:class:`~repro.sim.metrics.Metrics` registry out of it.
"""

from __future__ import annotations

from collections import Counter, deque
from operator import itemgetter
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.metrics import Metrics

#: The normal-case phase taxonomy, in protocol order.  Each entry is a
#: histogram named ``phase.<name>`` in the tracer's metrics registry;
#: view changes, state transfer, and recovery add their own entries.
PHASES = (
    "request_to_pre_prepare",   # primary: request arrival -> pre-prepare sent
    "pre_prepare_to_prepared",  # pre-prepare accepted -> prepared certificate
    "prepared_to_executed",     # prepared -> tentative execution (fast path)
    "prepared_to_committed",    # prepared -> committed-local
    "committed_to_executed",    # committed -> executed (slow path)
    "request_to_reply",         # client: invoke -> result accepted
    "view_change",              # VIEW-CHANGE sent -> new view entered
    "state_transfer",           # transfer initiated -> checkpoint installed
)

_PHASE_NAMES = {phase: f"phase.{phase}" for phase in PHASES}


#: Every event kind, with its fields in emission order: an event is the
#: tuple ``(time, source, kind, *fields)``.  One line per field set and
#: the kinds carrying it; docs/OBSERVABILITY.md's lifecycle table agrees.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(fields.split()) for fields, kinds in {
        "seq client request_id tentative result": "executed",
        "seq client request_id result": "read_only_executed",
        "request_id result": "result_accepted",
        "seq objects": "transfer_complete",
        "shard mode bound result evidence": "edge_reply",
        "seq": "rollback rollback_via_transfer prepared committed"
               " checkpoint_taken checkpoint_stable checkpoint_divergence"
               " conflicting_pre_prepare nondet_rejected transfer_started"
               " transfer_bad_cert",
        "view": "vc_timeout view_change_started new_view_timeout"
                " new_view_accepted new_view_rejected view_solicited",
        "view reproposed": "new_view_sent",
        "seq view": "tentative_reordered",
        "seq batch": "pre_prepare_sent",
        "epoch": "recovery_started recovery_fetching",
        "epoch total": "recovery_complete",
        "peer epoch": "peer_recovering",
        "donor": "transfer_donor_switch transfer_bad_table",
        "level index": "transfer_bad_meta",
        "index": "transfer_bad_object",
        "attempt": "transfer_apply_failed",
        "client": "bad_request_auth",
        "edge nonce": "edge_read_served",
        "error": "execute_error",
        "fault": "fault_injected",
        "fault forced": "fault_cleared",
    }.items() for kind in kinds.split()}
_ARITY = {kind: len(fields) for kind, fields in EVENT_FIELDS.items()}


class TraceEvent(tuple):
    """One ring event, ``(time, source, kind, *fields)``: a bare tuple,
    so the ring keeps no per-event dict or instance attributes."""

    __slots__ = ()
    time = property(itemgetter(0))
    source = property(itemgetter(1))
    kind = property(itemgetter(2))

    @property
    def detail(self) -> Dict[str, Any]:
        """The fields by name, built from :data:`EVENT_FIELDS` per read."""
        return dict(zip(EVENT_FIELDS[self[2]], self[3:]))


class Tracer:
    """Collects protocol events, counters, and phase metrics.

    The benchmark harness uses counters (MAC ops, digests, disk reads,
    messages) to attribute simulated time via the cost model; tests use
    the event list to assert protocol behaviour (e.g. "a view change
    happened", "replica 3 fetched 12 objects"); benchmarks read the
    ``metrics`` registry for per-phase latency breakdowns.

    Events live in a bounded ring: once ``max_events`` are retained the
    oldest is evicted and ``dropped_events`` increments, so a long run
    can never silently truncate the trace — ``find``/``first`` see the
    most recent window and the drop count says how much history is gone.
    """

    def __init__(self, keep_events: bool = True, max_events: int = 200_000):
        self.keep_events = keep_events
        self.max_events = max_events
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.counters: Counter = Counter()
        self.dropped_events = 0
        self.metrics = Metrics()

    # -- events and counters --------------------------------------------------

    def emit(self, time: float, source: Any, kind: str, *fields: Any) -> None:
        self.record(time, source, kind, fields)

    def record(self, time: float, source: Any, kind: str,
               fields: Tuple[Any, ...]) -> None:
        """:meth:`emit` for a caller already holding the field tuple (a
        node's ``trace(kind, *fields)``).  A kind not in
        :data:`EVENT_FIELDS`, or the wrong number of fields, is refused."""
        if _ARITY.get(kind) != len(fields):
            raise ValueError(f"event {kind!r} has {len(fields)} fields; "
                             f"declared: {EVENT_FIELDS.get(kind)}")
        counters = self.counters
        counters[kind] = counters.get(kind, 0) + 1
        if not self.keep_events:
            self.dropped_events += 1
            return
        events = self.events
        if len(events) == self.max_events:
            self.dropped_events += 1
        events.append(TraceEvent((time, source, kind) + fields))

    def count(self, kind: str, n: int = 1) -> None:
        self.counters[kind] += n

    def find(self, kind: str, source: Optional[Any] = None) -> List[TraceEvent]:
        return [e for e in self.events
                if e.kind == kind and (source is None or e.source == source)]

    def first(self, kind: str) -> Optional[TraceEvent]:
        for e in self.events:
            if e.kind == kind:
                return e
        return None

    def clear(self) -> None:
        self.events.clear()
        self.counters.clear()
        self.metrics.clear()
        self.dropped_events = 0

    # -- metrics convenience --------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.metrics.observe(name, value)

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one protocol-phase latency (histogram ``phase.<name>``)."""
        name = _PHASE_NAMES.get(phase) or f"phase.{phase}"
        hist = self.metrics.histograms.get(name)
        if hist is None:
            hist = self.metrics.histogram(name)
        hist.observe(seconds)
