"""Host-time spans recorded from the benchmark's own files.

Nothing under ``src/`` knows it is being traced.  :meth:`Recorder.install`
replaces the public entry points of each layer (see :data:`CLASS_SPANS`
and :data:`FUNCTION_SPANS`) with wrappers that time the call, and
:meth:`Recorder.uninstall` puts every original back.

A span is ``(layer, name, start, end, parent)``.  The parent is the span
that was open when this one started, so spans form trees; the root of
the tree is the timed window itself (layer ``workloads``), whose children
are ``Scheduler.step`` calls and whatever else the driver calls directly.
A layer's **self time** is the sum, over its spans, of the span's
duration minus the part its child spans cover.  Every instant of the
window therefore belongs to exactly one span's self time: the per-layer
rows sum to the window by construction, and code that is not wrapped is
charged to the layer that called it.

Callbacks are how control enters a layer from the scheduler, so they
get spans too: a function handed to ``Scheduler.schedule``,
``Scheduler.run_until_idle_or``, ``Timer`` or ``BftClient.invoke`` is
replaced by a traced stand-in attributed to the layer of the module
that defined it (``Network._deliver`` to ``sim.network``, the open-loop
generator's arrival handler to ``workloads``, and so on).

Spans stay in memory as per-``(layer, name)`` aggregates; the full span
trees of the first :data:`CAPTURE_STEPS` scheduler events of the first
window are kept as well and written out by the runner at exit.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from functools import partial
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.base.state import AbstractStateManager
from repro.bft.client import BftClient
from repro.bft.messages import Message
from repro.bft.recovery import RecoveryManager
from repro.bft.replica import Replica
from repro.bft.statemachine import InMemoryStateManager
from repro.bft.statetransfer import StateTransferManager
from repro.bft.viewchange import ViewChangeManager
from repro.crypto.mac import Authenticator
from repro.encoding.xdr import XdrDecoder, XdrEncoder
from repro.nfs.backends import ALL_BACKENDS, MemoryFilesystem
from repro.nfs.client import NfsClient
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.service.deploy import DirectChannel, ReplicatedChannel
from repro.service.kernel import AbstractService
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.node import Node, Timer
from repro.sim.scheduler import Event, Scheduler
from repro.sim.tracing import Tracer
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.wrapper import SqlConformanceWrapper

CAPTURE_STEPS = 200

# ``repro.crypto`` re-exports ``digest`` the function over the submodule
# of the same name, so the defining modules are fetched by full path.
digest_module = import_module("repro.crypto.digest")
mac_module = import_module("repro.crypto.mac")
signatures_module = import_module("repro.crypto.signatures")
canonical_module = import_module("repro.encoding.canonical")

#: Module prefix -> layer, first match wins (so longer prefixes go first).
#: Used for callbacks, whose layer is that of the module defining them.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.scheduler", "sim.scheduler"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.node", "sim.node"),
    ("repro.sim", "sim.tracing"),
    ("repro.crypto", "crypto"),
    ("repro.encoding", "encoding"),
    ("repro.bft.messages", "bft.messages"),
    ("repro.bft.client", "bft.client"),
    ("repro.bft.viewchange", "bft.viewchange"),
    ("repro.bft.statetransfer", "bft.statetransfer"),
    ("repro.bft.recovery", "bft.recovery"),
    ("repro.bft.statemachine", "bft.state"),
    ("repro.bft", "bft.replica"),
    ("repro.base", "base"),
    ("repro.service", "service.kernel"),
    ("repro.nfs.backends", "nfs.backends"),
    ("repro.nfs.client", "nfs.client"),
    ("repro.nfs", "nfs.wrapper"),
    ("repro.sql.engine", "sql.engine"),
    ("repro.sql", "sql.wrapper"),
    ("repro.workloads", "workloads"),
    ("benchmarks.ledger", "workloads"),
)

#: Every layer a span can belong to, in report order.  ``other`` holds
#: callbacks from modules the table above does not know; it must stay 0.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in MODULE_LAYERS)) + ("other",)


def layer_of(module: Optional[str]) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module and module.startswith(prefix):
            return layer
    return "other"


# -- work counted at the span boundaries --------------------------------------
#
# A hook runs after a wrapped call returns, as ``hook(counts, args, result)``
# with ``args`` including ``self`` for methods.  Hooks only add to integer
# (or simulated-second) counters, so what they count repeats exactly.

def _add(counts: Dict[str, float], key: str, n: float) -> None:
    counts[key] = counts.get(key, 0) + n


def _count_digest(counts, args, result) -> None:
    _add(counts, "crypto.digests", 1)
    _add(counts, "crypto.digest_bytes", len(args[0]))


def _count_digest_many(counts, args, result) -> None:
    _add(counts, "crypto.digests", 1)
    _add(counts, "crypto.digest_bytes", sum(len(part) for part in args[0]))


def _count_auth_create(counts, args, result) -> None:
    _add(counts, "crypto.macs_created", len(result.tags))


def _count_one(key: str) -> Callable:
    def hook(counts, args, result) -> None:
        _add(counts, key, 1)
    return hook


def _count_canonical(counts, args, result) -> None:
    _add(counts, "encoding.canonical_bytes", len(result))


def _count_xdr_out(counts, args, result) -> None:
    _add(counts, "encoding.xdr_bytes", len(result))


def _count_xdr_in(counts, args, result) -> None:
    _add(counts, "encoding.xdr_bytes", len(args[1]))


def _count_put_objs(counts, args, result) -> None:
    _add(counts, "base.put_objs_objects", len(args[1]))


def _count_charge(counts, args, result) -> None:
    node, seconds = args[0], args[1]
    if seconds > 0:
        _add(counts, f"sim.node.charge.{node.node_id}", seconds)


#: Result bytes of ``AbstractService.execute`` open with a list header;
#: a success reply's first item is ``"OK"`` (SQL) or status ``0`` (NFS).
_LIST_HEADER = len(canonical_module.canonical(()))
_OK_ITEMS = (canonical_module.canonical(("OK",))[_LIST_HEADER:],
             canonical_module.canonical((0,))[_LIST_HEADER:])


def _count_service_reply(counts, args, result) -> None:
    if not result.startswith(_OK_ITEMS, _LIST_HEADER):
        _add(counts, "service.kernel.error_replies", 1)


# -- what gets wrapped ---------------------------------------------------------
#
# (layer, class, method names or None for every public method, options).
# Options: ``hook`` counts work; ``key`` splits the span name by a value
# taken from the arguments; ``callback`` is the positional index of a
# function argument to replace by its traced stand-in.

def _message_kind(args) -> str:
    return getattr(args[2], "kind", "unknown")


def _public_methods(cls: type, *exclude: str) -> Tuple[str, ...]:
    return tuple(name for name, value in vars(cls).items()
                 if not name.startswith("_") and name not in exclude
                 and isinstance(value, (FunctionType, classmethod,
                                        staticmethod)))


CLASS_SPANS: Tuple[Tuple[str, type, Optional[Tuple[str, ...]], Dict], ...] = (
    ("sim.scheduler", Scheduler, ("step", "run", "run_until"), {}),
    ("sim.scheduler", Scheduler, ("schedule",), {"callback": 2}),
    ("sim.scheduler", Scheduler, ("run_until_idle_or",), {"callback": 1}),
    ("sim.scheduler", Event, ("cancel",), {}),
    ("sim.network", Network, ("send", "multicast"), {}),
    ("sim.node", Node, ("charge",), {"hook": _count_charge}),
    ("sim.node", Timer, ("__init__",), {"callback": 3}),
    ("sim.tracing", Tracer, ("emit", "count", "observe", "observe_phase"), {}),
    ("sim.tracing", Metrics, ("inc", "observe"), {}),
    ("crypto", Authenticator, ("create",), {"hook": _count_auth_create}),
    ("crypto", Authenticator, ("verify",),
     {"hook": _count_one("crypto.macs_verified")}),
    ("encoding", XdrEncoder, _public_methods(XdrEncoder, "getvalue"), {}),
    ("encoding", XdrEncoder, ("getvalue",), {"hook": _count_xdr_out}),
    ("encoding", XdrDecoder, _public_methods(XdrDecoder), {}),
    ("encoding", XdrDecoder, ("__init__",), {"hook": _count_xdr_in}),
    ("bft.messages", Message, ("body", "digest"), {}),
    ("bft.replica", Replica, ("on_message",), {"key": _message_kind}),
    ("bft.client", BftClient, ("invoke", "handle_reply"), {}),
    ("bft.viewchange", ViewChangeManager, None, {}),
    ("bft.statetransfer", StateTransferManager, None, {}),
    ("bft.recovery", RecoveryManager, None, {}),
    ("bft.state", InMemoryStateManager,
     ("execute", "take_checkpoint", "restore_checkpoint"), {}),
    ("base", AbstractStateManager,
     ("execute", "take_checkpoint", "restore_checkpoint", "modify"), {}),
    ("service.kernel", AbstractService, ("execute",),
     {"hook": _count_service_reply}),
    ("service.kernel", ReplicatedChannel, ("call",), {}),
    ("service.kernel", DirectChannel, ("call",), {}),
    ("nfs.wrapper", NfsConformanceWrapper, ("get_obj",), {}),
    ("nfs.wrapper", NfsConformanceWrapper, ("put_objs",),
     {"hook": _count_put_objs}),
    ("sql.wrapper", SqlConformanceWrapper, ("get_obj",), {}),
    ("sql.wrapper", SqlConformanceWrapper, ("put_objs",),
     {"hook": _count_put_objs}),
    ("nfs.backends", MemoryFilesystem, None, {}),
) + tuple(("nfs.backends", cls, None, {}) for cls in ALL_BACKENDS) + (
    ("sql.engine", HashStoreEngine, None, {}),
    ("sql.engine", BTreeStoreEngine, None, {}),
    ("nfs.client", NfsClient, None, {}),
)

#: Conformance wrappers dispatch through ``OPS`` tables that hold the
#: ``@op`` functions themselves, so those entries are wrapped in place.
OP_TABLES: Tuple[Tuple[str, type], ...] = (
    ("nfs.wrapper", NfsConformanceWrapper),
    ("sql.wrapper", SqlConformanceWrapper),
)

#: (layer, defining module, function name, hook).  Other ``repro``
#: modules bind these by ``from x import f`` (some under another name),
#: so every module-level binding of the original is replaced.
FUNCTION_SPANS: Tuple[Tuple[str, Any, str, Optional[Callable]], ...] = (
    ("crypto", digest_module, "digest", _count_digest),
    ("crypto", digest_module, "digest_many", _count_digest_many),
    ("crypto", mac_module, "compute_mac",
     _count_one("crypto.macs_created")),
    ("crypto", mac_module, "verify_mac",
     _count_one("crypto.macs_verified")),
    ("crypto", signatures_module, "sign",
     _count_one("crypto.signatures")),
    ("crypto", signatures_module, "verify_signature",
     _count_one("crypto.signatures")),
    ("encoding", canonical_module, "canonical", _count_canonical),
    ("encoding", canonical_module, "decanonical", None),
)


def _repro_modules() -> List[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if name.startswith("repro.") and mod is not None]


class Recorder:
    """Aggregates spans per ``(layer, name)`` while installed."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, self seconds, inclusive seconds],
        #: for the window in progress.  The lists are bound into the
        #: wrappers, so they are zeroed in place, never replaced.
        self._live: Dict[Tuple[str, str], List[float]] = {}
        self._live_counts: Dict[str, float] = {}
        #: The same, summed over every finished window.
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.window_seconds = 0.0
        self.windows = 0
        self.in_window = False
        #: Captured raw spans: (id, parent id, layer, name, start, end).
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        #: Client intervals: (client id, request id, invoke, accept).
        self.requests: List[Tuple[str, Optional[int], float, float]] = []
        self._stack: List[float] = []   # child time of each open span
        self._ids: List[int] = []       # ids of the open captured spans
        self._capture = 0               # next span id; 0 while not capturing
        self._steps_left = CAPTURE_STEPS
        self._callback_stats: Dict[Any, Tuple[List[float], str, str]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.installed = False

    # -- the span itself ---------------------------------------------------------

    def _stat(self, layer: str, name: str) -> List[float]:
        stat = self._live.get((layer, name))
        if stat is None:
            stat = self._live[(layer, name)] = [0, 0.0, 0.0]
        return stat

    def _span(self, stat: List[float], layer: str, name: str, fn: Callable,
              args: tuple, kwargs: dict):
        """Run ``fn`` as one span and book it."""
        stack = self._stack
        stack.append(0.0)
        sid = self._capture
        if sid:
            self._capture = sid + 1
            parent = self._ids[-1] if self._ids else 0
            self._ids.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            stat[0] += 1
            stat[1] += duration - stack.pop()
            stat[2] += duration
            if stack:
                stack[-1] += duration
            if sid:
                self._ids.pop()
                self.spans.append((sid, parent, layer, name, start, end))

    def _wrap(self, layer: str, name: str, fn: Callable,
              hook: Optional[Callable] = None,
              key: Optional[Callable] = None,
              callback: Optional[int] = None) -> Callable:
        stat = self._stat(layer, name)
        span, counts = self._span, self._live_counts

        if hook is None and key is None and callback is None:
            def wrapper(*args, **kwargs):
                return span(stat, layer, name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                st, nm = stat, name
                if key is not None:
                    nm = f"{name}.{key(args)}"
                    st = self._stat(layer, nm)
                if callback is not None and len(args) > callback:
                    args = (args[:callback]
                            + (self.traced_callback(args[callback]),)
                            + args[callback + 1:])
                result = span(st, layer, nm, fn, args, kwargs)
                if hook is not None:
                    hook(counts, args, result)
                return result

        wrapper.__ledger_original__ = fn
        return wrapper

    def traced_callback(self, fn: Callable) -> Callable:
        """The stand-in that runs ``fn`` inside a span of ``fn``'s layer."""
        return partial(self._run_callback, fn)

    def _run_callback(self, fn: Callable, *args, **kwargs):
        func = getattr(fn, "__func__", fn)
        # Closures made afresh per call share one code object.
        ident = getattr(func, "__code__", None) or type(func)
        entry = self._callback_stats.get(ident)
        if entry is None:
            layer = layer_of(getattr(func, "__module__", None))
            name = "callback." + getattr(func, "__qualname__",
                                         type(func).__name__)
            entry = self._callback_stats[ident] = (
                self._stat(layer, name), layer, name)
        return self._span(*entry, fn, args, kwargs)

    # -- special cases -----------------------------------------------------------

    def _after_step(self, counts, args, result) -> None:
        if self._capture:
            self._steps_left -= 1
            if self._steps_left <= 0:
                self._capture = 0

    def _wrap_body(self, fn: Callable) -> Callable:
        """``Message.body`` plus the useful-over-attempts count: calls
        during which ``canonical`` ran, so the encoding was not cached."""
        spanned = self._wrap("bft.messages", "Message.body", fn)
        canonical_stat = self._stat("encoding", "canonical")
        counts = self._live_counts

        def body(message):
            before = canonical_stat[0]
            result = spanned(message)
            if canonical_stat[0] != before:
                _add(counts, "bft.messages.body_encodes", 1)
            return result

        return body

    def _wrap_digest_many(self, fn: Callable) -> Callable:
        """``digest_many`` takes one-shot iterables; size them first.
        Producing the parts is the caller's work, so it stays outside."""
        spanned = self._wrap("crypto", "digest_many", fn,
                             hook=_count_digest_many)

        def digest_many(parts):
            return spanned(list(parts))

        digest_many.__ledger_original__ = fn
        return digest_many

    def _wrap_invoke(self, fn: Callable) -> Callable:
        """``BftClient.invoke`` with a traced completion callback that
        also closes the request's ``(client_id, request_id)`` interval."""
        spanned = self._wrap("bft.client", "BftClient.invoke", fn)
        requests, clock, run = (self.requests, time.perf_counter,
                                self._run_callback)

        def invoke(client, op, callback, read_only=False):
            issued: List[int] = []
            start = clock()

            def accepted(result):
                if self.in_window:
                    requests.append((client.node_id,
                                     issued[0] if issued else None,
                                     start, clock()))
                return run(callback, result)

            request_id = spanned(client, op, accepted, read_only)
            issued.append(request_id)
            return request_id

        return invoke

    # -- installing and removing -------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        """Replace ``owner.attr`` (a class's own attribute, or a field
        of an ``OpSpec``) and remember what was there."""
        old = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _patch_method(self, layer: str, cls: type, attr: str,
                      options: Dict) -> None:
        raw = vars(cls)[attr]
        name = f"{cls.__name__}.{attr}"
        if (cls, attr) == (Message, "body"):
            new: Any = self._wrap_body(raw)
        elif (cls, attr) == (BftClient, "invoke"):
            new = self._wrap_invoke(raw)
        elif (cls, attr) == (Scheduler, "step"):
            new = self._wrap(layer, name, raw, hook=self._after_step)
        elif isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(layer, name, raw.__func__, **options))
        else:
            new = self._wrap(layer, name, raw, **options)
        self._patch(cls, attr, new)

    def install(self) -> None:
        """Wrap every entry point.  Do this before building anything:
        objects cache bound handlers when they first use them."""
        if self.installed:
            raise RuntimeError("recorder already installed")
        self.installed = True
        for layer, module, attr, hook in FUNCTION_SPANS:
            original = getattr(module, attr)
            if attr == "digest_many":
                wrapper = self._wrap_digest_many(original)
            else:
                wrapper = self._wrap(layer, attr, original, hook=hook)
            for mod in _repro_modules():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
        for layer, cls, names, options in CLASS_SPANS:
            for attr in names or _public_methods(cls):
                self._patch_method(layer, cls, attr, options)
        for layer, cls in OP_TABLES:
            for tag, spec in cls.OPS.items():
                self._patch(spec, "method",
                            self._wrap(layer, f"op.{tag}", spec.method))

    def uninstall(self) -> None:
        """Put every original back — also in modules first imported, and
        so bound to a wrapper, while the recorder was installed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for mod in _repro_modules():
            for bound, value in list(vars(mod).items()):
                original = getattr(value, "__ledger_original__", None)
                if original is not None:
                    setattr(mod, bound, original)
        self.installed = False

    # -- windows -----------------------------------------------------------------

    def window(self, drive: Callable[[], Any]) -> Any:
        """Run ``drive`` as the timed window: the root span.  Whatever
        the wrappers saw before it (builds, preloads) is discarded."""
        if self._stack:
            raise RuntimeError("a window cannot open inside a span")
        for stat in self._live.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self._live_counts.clear()
        if self.windows == 0:
            self._capture = 1
        self.in_window = True
        root = self._stat("workloads", "window")
        try:
            return self._span(root, "workloads", "window", drive, (), {})
        finally:
            self.in_window = False
            self._capture = 0
            self.window_seconds += root[2]
            self.windows += 1
            for key, live in self._live.items():
                total = self.stats.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += live[i]
            for key, n in self._live_counts.items():
                _add(self.counts, key, n)

    # -- reading -----------------------------------------------------------------

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over the finished windows."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), stat in self.stats.items():
            out[layer] += stat[1]
        return out

    def _total(self, field: int, layer: str, prefix: str) -> float:
        return sum(stat[field] for (lay, name), stat in self.stats.items()
                   if lay == layer and name.startswith(prefix))

    def calls(self, layer: str, prefix: str = "") -> int:
        """Calls of the layer's spans whose name starts with ``prefix``."""
        return int(self._total(0, layer, prefix))

    def self_seconds(self, layer: str, prefix: str = "") -> float:
        return self._total(1, layer, prefix)

    def inclusive_seconds(self, layer: str, prefix: str = "") -> float:
        return self._total(2, layer, prefix)
