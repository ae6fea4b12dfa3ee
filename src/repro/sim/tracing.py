"""Structured event tracing, counters, and the metrics registry.

The :class:`Tracer` is the single observability object shared by a
simulated cluster: protocol code emits events and per-phase latency
observations into it, and the benchmark harness reads counters (MAC ops,
digests, messages), the bounded event ring, and the
:class:`~repro.sim.metrics.Metrics` registry out of it.
"""

from __future__ import annotations

import struct
from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

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


#: The closed set of wire types an event field declares: int64, a string
#: (stored as a 2-byte code from the ring's string table), bool, double
#: and a 32-byte digest; each with its ``struct`` code and Python type.
WIRE_TYPES = {"int": ("q", int), "str": ("H", str), "bool": ("?", bool),
              "float": ("d", float), "digest": ("32s", bytes)}

#: Every event kind, with its fields in emission order and their wire
#: types: an event is ``(time, source, kind, *fields)``.  One line per
#: field set and the kinds carrying it; docs/OBSERVABILITY.md's
#: lifecycle table agrees.  ``edge_reply``'s ``evidence`` is an object,
#: so that kind always overflows (see :class:`EventRing`).
CATALOGUE: Dict[str, str] = {
    "seq:int client:str request_id:int tentative:bool result:digest":
        "executed",
    "seq:int client:str request_id:int result:digest": "read_only_executed",
    "request_id:int result:digest": "result_accepted",
    "seq:int objects:int": "transfer_complete",
    "shard:int mode:str bound:float result:digest evidence:str":
        "edge_reply",
    "seq:int": "rollback rollback_via_transfer prepared committed"
               " checkpoint_taken checkpoint_stable checkpoint_divergence"
               " conflicting_pre_prepare nondet_rejected transfer_started"
               " transfer_bad_cert",
    "view:int": "vc_timeout view_change_started new_view_timeout"
                " new_view_accepted new_view_rejected view_solicited",
    "view:int reproposed:int": "new_view_sent",
    "seq:int view:int": "tentative_reordered",
    "seq:int batch:int": "pre_prepare_sent",
    "epoch:int": "recovery_started recovery_fetching",
    "epoch:int total:float": "recovery_complete",
    "peer:str epoch:int": "peer_recovering",
    "donor:str": "transfer_donor_switch transfer_bad_table",
    "level:int index:int": "transfer_bad_meta",
    "index:int": "transfer_bad_object",
    "attempt:int": "transfer_apply_failed",
    "client:str": "bad_request_auth",
    "edge:str nonce:int": "edge_read_served",
    "error:str": "execute_error",
    "fault:str": "fault_injected",
    "fault:str forced:bool": "fault_cleared",
}

#: Bytes per ring slot.  A slot is the header (time, the source's string
#: code, the kind's index) and then the kind's fields, packed.
SLOT = 64
_HEADER = "<dHB"
_KIND_AT = struct.calcsize("<dH")
_OVERFLOW = 255     # the kind index of a slot whose event is in ``overflow``


def parse_catalogue(catalogue: Dict[str, str]
                    ) -> Dict[str, Tuple[Tuple[str, str], ...]]:
    """kind -> its ``(field, wire type)`` pairs.  A field with no wire
    type, or one outside :data:`WIRE_TYPES`, is refused, as is a field
    set that does not fit a :data:`SLOT`."""
    declared = {}
    for fields, kinds in catalogue.items():
        typed = tuple(field.partition(":")[::2] for field in fields.split())
        wrong = [field for field, wire in typed if wire not in WIRE_TYPES]
        if wrong:
            raise TypeError(f"{kinds}: no wire type in {sorted(WIRE_TYPES)} "
                            f"for {wrong}")
        if struct.calcsize(_layout(typed)) > SLOT:
            raise ValueError(f"{kinds}: {fields!r} does not fit {SLOT} bytes")
        declared.update((kind, typed) for kind in kinds.split())
    return declared


def _layout(typed: Tuple[Tuple[str, str], ...]) -> str:
    return _HEADER + "".join(WIRE_TYPES[wire][0] for _, wire in typed)


class TraceEvent(tuple):
    """One ring event, ``(time, source, kind, *fields)``: a bare tuple,
    decoded from its slot each time the ring is read."""

    __slots__ = ()
    time = property(itemgetter(0))
    source = property(itemgetter(1))
    kind = property(itemgetter(2))

    @property
    def detail(self) -> Dict[str, Any]:
        """The fields by name, built from :data:`EVENT_FIELDS` per read."""
        return dict(zip(EVENT_FIELDS[self[2]], self[3:]))


def _compile(index: int, kind: str, typed: Tuple[Tuple[str, str], ...]):
    """``(pack, unpack)`` for one kind.  ``pack`` writes the slot, or
    returns False if a value is not of its wire type's Python type or a
    digest is not 32 bytes; ``unpack`` reads back the event packed."""
    layout = struct.Struct(_layout(typed))
    wires = dict(time="float", source="str", **{
        f"f{i}": wire for i, (_, wire) in enumerate(typed)})
    fields = "".join(f"f{i}, " for i in range(len(typed)))
    checks = [f"type({n}) is {WIRE_TYPES[w][1].__name__}"
              for n, w in wires.items()]
    checks += [f"len({n}) == 32" for n, w in wires.items() if w == "digest"]
    stored = [f"codes.get({n}) or ring.intern({n})" if w == "str" else n
              for n, w in wires.items()]
    read = [f"strings[{n}]" if w == "str" else n for n, w in wires.items()]
    scope = {"pack_into": layout.pack_into, "unpack_from": layout.unpack_from,
             "TraceEvent": TraceEvent}
    exec(f"def pack(buf, off, time, source, fields, ring):\n"
         f"    {fields}= fields\n"
         f"    if {' and '.join(checks)}:\n"
         f"        codes = ring.codes\n"
         f"        pack_into(buf, off, {stored[0]}, {stored[1]}, {index}, "
         f"{', '.join(stored[2:])})\n"
         f"        return True\n"
         f"    return False\n"
         f"def unpack(buf, off, strings):\n"
         f"    time, source, _, {fields}= unpack_from(buf, off)\n"
         f"    return TraceEvent(({read[0]}, {read[1]}, {kind!r}, "
         f"{''.join(value + ', ' for value in read[2:])}))\n", scope)
    return scope["pack"], scope["unpack"]


_DECLARED = parse_catalogue(CATALOGUE)
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(name for name, _ in typed) for kind, typed in _DECLARED.items()}
_ARITY = {kind: len(fields) for kind, fields in EVENT_FIELDS.items()}
_KIND_INDEX = {kind: index for index, kind in enumerate(_DECLARED)}
_PACK, _UNPACK = {}, []
for _kind, _typed in _DECLARED.items():
    _PACK[_kind], _unpack = _compile(_KIND_INDEX[_kind], _kind, _typed)
    _UNPACK.append(_unpack)
assert len(_UNPACK) < _OVERFLOW


class EventRing:
    """``tracer.events``: one :data:`SLOT`-byte record per event in a
    circular ``bytearray``.  Event *n* goes in slot ``n % max_events``;
    the buffer grows until it first wraps.  A string (the source too) is
    stored as its code in the ring's string table.  An event with a value
    its wire type cannot hold (``None``, an object, bytes not 32 long, an
    int beyond int64, a non-str source, a new string once the table is
    full) is kept whole in ``overflow`` until its slot is overwritten.
    Reading decodes each slot back into the :class:`TraceEvent` emitted.
    """

    def __init__(self, max_events: int):
        self.max_events = max_events
        self.clear()

    def clear(self) -> None:
        self.buf = bytearray()
        self.overflow: Dict[int, TraceEvent] = {}
        self.codes: Dict[str, int] = {}
        self.strings: List[Optional[str]] = [None]   # code 0 is never used
        self.appended = 0

    def intern(self, value: str) -> int:
        """A new string's code; the table holds 65 535."""
        strings = self.strings
        if len(strings) > 0xFFFF:
            raise OverflowError("the string table is full")
        code = self.codes[value] = len(strings)
        strings.append(value)
        return code

    def _grow(self, slots: int) -> None:
        """Add a seventh (at least 256 slots), up to ``max_events`` slots.
        A step over an eighth makes ``bytearray`` allocate exactly what it
        is asked for, so a full ring holds ``max_events * SLOT`` bytes."""
        slots += max(slots // 7, 256)
        if slots + slots // 7 > self.max_events:
            slots = self.max_events
        self.buf += bytes(slots * SLOT - len(self.buf))

    def append(self, time: float, source: Any, kind: str,
               fields: Tuple[Any, ...]) -> bool:
        """Store one event; True if it evicted the oldest."""
        n = self.appended
        self.appended = n + 1
        buf, max_events = self.buf, self.max_events
        evicted = n >= max_events
        if not evicted:
            off = n * SLOT
            if off == len(buf):
                self._grow(n)
        elif not max_events:
            return True
        else:
            off = n % max_events * SLOT
            if buf[off + _KIND_AT] == _OVERFLOW:
                del self.overflow[n - max_events]
        try:
            packed = _PACK[kind](buf, off, time, source, fields, self)
        except (struct.error, OverflowError):   # beyond int64; table full
            packed = False
        if not packed:
            buf[off + _KIND_AT] = _OVERFLOW
            self.overflow[n] = TraceEvent((time, source, kind) + fields)
        return evicted

    def __len__(self) -> int:
        return min(self.appended, self.max_events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.select(None)

    def select(self, kind: Optional[str]) -> Iterator[TraceEvent]:
        """The retained events of ``kind`` (every kind if None), oldest
        first; a slot of another kind is skipped undecoded."""
        buf, overflow, strings = self.buf, self.overflow, self.strings
        want = _KIND_INDEX.get(kind)
        for n in range(self.appended - len(self), self.appended):
            off = n % self.max_events * SLOT
            index = buf[off + _KIND_AT]
            if index == _OVERFLOW:
                if kind is None or overflow[n][2] == kind:
                    yield overflow[n]
            elif kind is None or index == want:
                yield _UNPACK[index](buf, off, strings)


class Tracer:
    """Collects protocol events, counters, and phase metrics.

    The benchmark harness uses counters (MAC ops, digests, messages) to
    attribute simulated time via the cost model; tests and FaultLab read
    the event ring; benchmarks read ``metrics`` for per-phase latencies.
    Once the ring holds ``max_events`` the oldest is evicted and
    ``dropped_events`` increments, so a long run never silently
    truncates the trace: ``find``/``first`` see the most recent window.
    """

    def __init__(self, keep_events: bool = True, max_events: int = 200_000):
        self.keep_events = keep_events
        self.events = EventRing(max_events)
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
        if not self.keep_events or self.events.append(time, source, kind,
                                                      fields):
            self.dropped_events += 1

    def count(self, kind: str, n: int = 1) -> None:
        self.counters[kind] += n

    def find(self, kind: str, source: Optional[Any] = None) -> List[TraceEvent]:
        return [e for e in self.events.select(kind)
                if source is None or e[1] == source]

    def first(self, kind: str) -> Optional[TraceEvent]:
        return next(self.events.select(kind), None)

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
