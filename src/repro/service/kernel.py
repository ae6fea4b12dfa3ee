"""Declarative operation dispatch for conformance wrappers.

Every conformance wrapper used to hand-roll the same ``execute`` shape:
decode the canonical op tuple, ``getattr(self, f"_op_{kind}")`` (one of
them without a default — an unknown op from a Byzantine client became an
``AttributeError`` through the replica), gate the read-only path, accept
the agreed nondeterministic value, and translate service exceptions into
a deterministic error envelope.  :class:`AbstractService` implements
that shape once, over a dispatch table built at class-definition time
from ``@op``-decorated methods, with small per-service hooks for the
envelope formats the wire protocols pin down.

The same class owns what every wrapper would otherwise restate: the
agreed clock (§2.3 — a wrapper that sets ``timestamps`` gets the agreed
microseconds as every handler's first argument), and the shutdown/restart
persistence of the conformance representation (§3.1.4): subclasses
implement ``save_rep``/``load_rep`` over plain canonical-encodable values
and the kernel owns the serialization, the simulated I/O cost, and
whether a restart rebuilds onto a fresh backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.base.nondet import TimestampAgreement
from repro.base.upcalls import Upcalls
from repro.encoding.canonical import canonical, decanonical

#: Kernel-level transaction meta-ops (client-driven two-phase commit for
#: cross-shard operations; see docs/SHARDING.md).  These tags live outside
#: every service's abstract specification — the kernel intercepts them
#: before table dispatch, so no service can shadow them.
TXN_PREPARE = "__prepare__"
TXN_COMMIT = "__commit__"
TXN_ABORT = "__abort__"
#: Reply envelope tag shared by all three meta-ops.
TXN_TAG = "__txn__"
_TXN_OPS = frozenset((TXN_PREPARE, TXN_COMMIT, TXN_ABORT))

#: ``(op, kind, args)`` of the op ``execute`` decoded last, shared by
#: every service instance: a request is one bytes object at all of a
#: group's replicas, so the first to execute it decodes for the rest.
#: Matched by identity, never by value — an object that is still
#: referenced cannot have become other bytes.
_last_decoded: Tuple[Optional[bytes], Any, tuple] = (None, None, ())


class OpSpec:
    """One registered operation of a service's abstract specification."""

    __slots__ = ("name", "method", "read_only", "cost")

    def __init__(self, name: str, method: Callable, read_only: bool,
                 cost: float):
        self.name = name
        self.method = method
        #: Eligible for BFT's read-only optimization; mutating ops issued
        #: on the read-only path are rejected with the service's envelope.
        self.read_only = read_only
        #: Extra simulated CPU seconds charged per invocation (on top of
        #: the service-wide ``per_op_cost``).
        self.cost = cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OpSpec({self.name!r}, read_only={self.read_only}, "
                f"cost={self.cost})")


def op(name: Optional[str] = None, *, read_only: bool = False,
       cost: float = 0.0):
    """Register a method as one operation of the abstract specification.

    The wire op tag defaults to the method name with its ``_op_`` prefix
    stripped; pass ``name`` to register under a different tag (e.g. the
    HTTP wrapper registers ``_op_get`` as ``GET`` is normalized through
    :meth:`AbstractService.op_key`).
    """

    def decorate(method: Callable) -> Callable:
        tag = name
        if tag is None:
            tag = method.__name__
            if tag.startswith("_op_"):
                tag = tag[len("_op_"):]
        method.__op_spec__ = OpSpec(tag, method, read_only, cost)
        return method

    return decorate


class AbstractService(Upcalls):
    """Upcalls base with table dispatch and shared recovery persistence.

    Subclasses declare operations with ``@op`` and override the small
    envelope hooks; ``execute`` itself is final in spirit — the dispatch,
    gating, and error-translation logic lives here once.
    """

    #: Built by ``__init_subclass__``: wire op tag -> OpSpec.
    OPS: Dict[str, OpSpec] = {}

    #: Exceptions treated as malformed client input when no service
    #: envelope claims them: wrong arity or argument types from a faulty
    #: client must produce a deterministic error reply, not crash the
    #: replica.
    MALFORMED_EXC: Tuple[type, ...] = (TypeError, ValueError)

    #: Simulated seconds per byte to persist/reload the conformance
    #: representation around proactive-recovery reboots.
    REP_IO_COST_PER_BYTE: float = 1e-8

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: Dict[str, OpSpec] = {}
        for base in reversed(cls.__mro__):
            for value in vars(base).values():
                spec = getattr(value, "__op_spec__", None)
                if spec is not None:
                    table[spec.name] = spec
        cls.OPS = table

    def __init__(self) -> None:
        super().__init__()
        #: Simulated CPU seconds charged for every operation (faulty or
        #: not) before dispatch; per-op extras come from ``@op(cost=...)``.
        self.per_op_cost: float = 0.0
        #: The agreed clock of a service whose handlers take a timestamp;
        #: None for services that agree on nothing.
        self.timestamps: Optional[TimestampAgreement] = None
        #: §3.1.4's improvement: when set, ``load_rep`` discards the
        #: wrapped implementation and rebuilds onto the *fresh* one this
        #: returns (see ``fresh_backend``), from the abstract state fetched
        #: during recovery — tolerating corrupt concrete data structures
        #: an in-place repair could never fix, and clearing leaks by
        #: construction.
        self.clean_recovery_factory: Optional[Callable[[], Any]] = None
        #: True once ``restart`` has rebuilt onto a fresh backend: the
        #: abstraction function then meets objects that are not there yet.
        self.restarted_clean = False
        self._saved_rep: Optional[bytes] = None

    # -- introspection -----------------------------------------------------------

    @classmethod
    def read_only_ops(cls) -> FrozenSet[str]:
        """Wire tags of the ops eligible for the read-only path."""
        return frozenset(name for name, spec in cls.OPS.items()
                         if spec.read_only)

    # -- execute (the shared shape) ----------------------------------------------

    def execute(self, op: bytes, client_id: str, nondet: bytes,
                read_only: bool = False) -> bytes:
        global _last_decoded
        last_op, kind, args = _last_decoded
        if op is not last_op:
            kind = None
            try:
                decoded = decanonical(op)
                kind, args = decoded[0], tuple(decoded[1:])
            except Exception:
                return canonical(self.malformed_reply(kind, None))
            _last_decoded = (op, kind, args)
        if isinstance(kind, str) and kind in _TXN_OPS:
            return self._execute_txn(kind, args, client_id, nondet, read_only)
        key = self.op_key(kind) if isinstance(kind, str) else None
        spec = self.OPS.get(key) if key is not None else None
        self.charge_op(spec)
        if spec is None:
            return canonical(self.unknown_op_reply(kind))
        if read_only and not spec.read_only:
            return canonical(self.read_only_reply(kind))
        if self.timestamps is not None:
            # Read-only ops neither need nor accept the agreed value.
            now = 0
            if nondet and not spec.read_only:
                now = int(self.timestamps.accept(nondet) * 1_000_000)
            args = (now,) + args
        try:
            payload = spec.method(self, *args)
        except Exception as exc:
            reply = self.service_error_reply(exc)
            if reply is None and isinstance(exc, self.MALFORMED_EXC):
                reply = self.malformed_reply(kind, exc)
            if reply is None:
                raise
            return canonical(reply)
        return canonical(self.ok_reply(payload))

    # -- transaction meta-ops (cross-shard two-phase commit) -----------------------

    def _execute_txn(self, kind: str, args: tuple, client_id: str,
                     nondet: bytes, read_only: bool) -> bytes:
        """Execute one kernel transaction meta-op.

        Every reply is a ``(TXN_TAG, status, ...)`` envelope, and every
        outcome is a deterministic function of the op bytes and the
        current abstract state — Byzantine coordinators can at worst
        abandon a prepared transaction, which holds no locks and has
        zero abstract-state effect.
        """
        self.charge_op(None)
        if read_only:
            # Mutating by construction: committing applies sub-ops.
            return canonical((TXN_TAG, "read_only", kind))
        if kind == TXN_ABORT:
            if len(args) != 1 or not isinstance(args[0], str):
                return canonical((TXN_TAG, "malformed", kind))
            return canonical((TXN_TAG, "aborted", args[0]))
        if (len(args) != 2 or not isinstance(args[0], str)
                or not isinstance(args[1], tuple) or not args[1]
                or not all(isinstance(sub, bytes) for sub in args[1])):
            return canonical((TXN_TAG, "malformed", kind))
        txn_id, sub_ops = args[0], args[1]
        if kind == TXN_PREPARE:
            # A stateless vote: the commit carries its sub-ops, so a
            # prepare leaves nothing behind for an abandoned
            # transaction to leak.
            if all(self._txn_vote(sub) for sub in sub_ops):
                return canonical((TXN_TAG, "prepared", txn_id))
            return canonical((TXN_TAG, "refused", txn_id))
        # TXN_COMMIT: apply the carried sub-ops in order at this sequence
        # point.
        replies = tuple(self.execute(sub, client_id, nondet)
                        for sub in sub_ops)
        return canonical((TXN_TAG, "committed", txn_id, replies))

    def _txn_vote(self, sub_op: bytes) -> bool:
        """Would this sub-op dispatch?  (The prepare-phase vote: depends
        only on the op bytes, so every correct replica votes alike.)"""
        try:
            decoded = decanonical(sub_op)
            kind = decoded[0]
        except Exception:
            return False
        if not isinstance(kind, str) or kind in _TXN_OPS:
            return False
        return self.op_key(kind) in self.OPS

    # -- per-service hooks ---------------------------------------------------------

    def op_key(self, kind: str) -> str:
        """Normalize a wire op tag to a table key (e.g. HTTP methods)."""
        return kind

    def charge_op(self, spec: Optional[OpSpec]) -> None:
        """Charge simulated CPU for one request (unknown ops included —
        a faulty client still costs the replica the decode)."""
        seconds = self.per_op_cost + (spec.cost if spec is not None else 0.0)
        if seconds:
            self.charge(seconds)

    def ok_reply(self, payload: tuple) -> tuple:
        """Wrap a handler's payload in the service's success envelope."""
        return payload

    def unknown_op_reply(self, kind: Any) -> tuple:
        """Envelope for an op tag outside the abstract specification."""
        raise NotImplementedError

    def read_only_reply(self, kind: Any) -> tuple:
        """Envelope for a mutating op issued on the read-only path."""
        raise NotImplementedError

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        """Envelope for undecodable or ill-typed requests.  Defaults to
        the unknown-op envelope; services with a richer error vocabulary
        override it."""
        return self.unknown_op_reply(kind)

    def service_error_reply(self, exc: Exception) -> Optional[tuple]:
        """Map a service exception to its deterministic error envelope,
        or return None to let it propagate (library bugs must surface)."""
        return None

    # -- nondeterminism (paper §2.3) ----------------------------------------------

    def propose_value(self, requests, seq: int) -> bytes:
        if self.timestamps is None:
            return super().propose_value(requests, seq)
        return self.timestamps.propose()

    def check_value(self, requests, seq: int, nondet: bytes) -> bool:
        if self.timestamps is None:
            return super().check_value(requests, seq, nondet)
        return self.timestamps.check(nondet)

    # -- library plumbing shared by every wrapper ---------------------------------

    def _modify(self, index: int) -> None:
        """Record the imminent mutation of abstract object ``index``
        (copy-on-write checkpointing)."""
        if self.library is not None:
            self.library.modify(index)

    def charge(self, seconds: float) -> None:
        if self.library is not None:
            self.library.charge(seconds)

    # -- proactive recovery (shutdown / restart) ----------------------------------

    def save_rep(self) -> Optional[Any]:
        """The conformance representation as a canonical-encodable value,
        or None if the service keeps nothing across reboots."""
        return None

    def load_rep(self, saved: Any) -> None:
        """Rebuild the conformance representation from ``save_rep``'s
        value after the reboot."""

    def fresh_backend(self) -> Optional[Any]:
        """For ``load_rep``: the fresh backend to rebuild onto when clean
        recovery is on (the wrapper is then restarted clean), or None to
        restart the old one in place."""
        if self.clean_recovery_factory is None:
            return None
        self.restarted_clean = True
        return self.clean_recovery_factory()

    def shutdown(self) -> float:
        saved = self.save_rep()
        if saved is None:
            return 0.0
        self._saved_rep = canonical(saved)
        return self.REP_IO_COST_PER_BYTE * len(self._saved_rep)

    def restart(self) -> float:
        if self._saved_rep is None:
            return 0.0
        self.load_rep(decanonical(self._saved_rep))
        return self.REP_IO_COST_PER_BYTE * len(self._saved_rep)
