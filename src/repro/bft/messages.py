"""BFT protocol messages.

Each message exposes:

- ``kind`` — dispatch key used by :class:`repro.sim.Node`;
- ``body()`` — canonical bytes covered by MACs/signatures;
- ``digest()`` — SHA-256 of the body;
- ``wire_size()`` — bytes charged to the network, body + authentication.

Authentication tags (``auth`` for MAC authenticators, ``sig`` for
signatures) ride outside the body and are attached by the sender.

**Seal once.**  A message's fields never change once it is sent, and the
simulator hands the *same object* to every receiver, so the body is
encoded once and hashed once in the message's lifetime.  The first
``body()`` stores the bytes and their length (``body_size``), the first
``digest()`` the hash (``sealed_digest``); both attributes are ``None``
until then.  Code on the per-message path — authenticating, verifying,
sizing, counting votes — reads the stored value and falls back to the
method only when it is still ``None`` (``msg.sealed_digest or
msg.digest()``), so a delivery costs no re-encoding, no re-hashing and
no call at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.crypto.digest import digest as sha_digest
from repro.crypto.mac import MAC_SIZE
from repro.crypto.signatures import SIGNATURE_SIZE
from repro.encoding.canonical import (
    RECORD_ENCODERS, canonical, register_record)

NULL_CLIENT = "__null__"


class Message:
    """Base for protocol messages; subclasses define ``_fields()``."""

    kind = "message"

    __slots__ = ("_body", "body_size", "sealed_digest", "auth", "sig")

    def __init__(self) -> None:
        # The normal-case kinds set these five themselves, in one line,
        # to spare a second frame per message: keep the two in step.
        self._body: Optional[bytes] = None
        self.body_size: Optional[int] = None       # len(body()), once encoded
        self.sealed_digest: Optional[bytes] = None  # digest(), once hashed
        self.auth = None   # Optional[Authenticator]
        self.sig = None    # Optional[bytes]

    def _fields(self) -> tuple:
        raise NotImplementedError

    def body(self) -> bytes:
        body = self._body
        if body is None:
            # A registered class goes to its record encoder; a subclass
            # of one is not registered and encodes through _fields().
            body = self._body = canonical(
                self if type(self) in RECORD_ENCODERS
                else (self.kind,) + self._fields())
            self.body_size = len(body)
        return body

    def digest(self) -> bytes:
        digest = self.sealed_digest
        if digest is None:
            digest = self.sealed_digest = sha_digest(self.body())
        return digest

    def wire_size(self) -> int:
        size = self.body_size
        if size is None:
            size = len(self.body())
        auth = self.auth
        if auth is not None:
            size += auth.wire_size()
        if self.sig is not None:
            size += SIGNATURE_SIZE
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}{self._fields()!r}"


def record(**fields: type):
    """Class decorator: declare ``_fields()`` as a flat record of typed
    attributes so ``body()`` takes the codec's straight-line encoder.
    ``_fields()`` stays the specification the encoder is tested against."""
    def decorate(cls: type) -> type:
        register_record(cls, cls.kind, fields)
        return cls
    return decorate


@record(client_id=str, request_id=int, op=bytes, read_only=bool)
class Request(Message):
    """Client request to execute ``op`` (opaque service-level bytes)."""

    kind = "request"

    __slots__ = ("client_id", "request_id", "op", "read_only")

    def __init__(self, client_id: str, request_id: int, op: bytes,
                 read_only: bool = False):
        self._body = self.body_size = self.sealed_digest = None
        self.auth = self.sig = None
        self.client_id = client_id
        self.request_id = request_id
        self.op = op
        self.read_only = read_only

    def _fields(self) -> tuple:
        return (self.client_id, self.request_id, self.op, self.read_only)

    @classmethod
    def null(cls) -> "Request":
        """The no-op request used to fill sequence-number gaps after a
        view change."""
        return cls(NULL_CLIENT, 0, b"")

    @property
    def is_null(self) -> bool:
        return self.client_id == NULL_CLIENT


@record(view=int, request_id=int, client_id=str, replica_id=str, result=bytes,
        result_digest=bytes, tentative=bool, read_only=bool)
class Reply(Message):
    """Replica's reply; carries the full result or only its digest when
    the tentative-reply optimization designates another replica."""

    kind = "reply"

    __slots__ = ("view", "request_id", "client_id", "replica_id", "result",
                 "result_digest", "tentative", "read_only")

    def __init__(self, view: int, request_id: int, client_id: str,
                 replica_id: str, result: Optional[bytes],
                 result_digest: bytes, tentative: bool = False,
                 read_only: bool = False):
        self._body = self.body_size = self.sealed_digest = None
        self.auth = self.sig = None
        self.view = view
        self.request_id = request_id
        self.client_id = client_id
        self.replica_id = replica_id
        self.result = result
        self.result_digest = result_digest
        self.tentative = tentative
        # Distinguishes read-only-optimization replies (executed against
        # the replica's current state, never ordered) from ordered
        # tentative replies (executed at prepared, commit pending).  A
        # client that fell back from the read-only path must not count
        # straggling read-only replies toward the ordered quorum.
        self.read_only = read_only

    def _fields(self) -> tuple:
        return (self.view, self.request_id, self.client_id, self.replica_id,
                self.result, self.result_digest, self.tentative,
                self.read_only)


class PrePrepare(Message):
    """Primary's ordering proposal for a batch of requests at ``seq``.

    Carries the requests themselves (piggybacked, as in the BFT
    implementation) plus the primary's nondeterministic value for the
    batch (BASE's ``propose_value`` output).
    """

    kind = "pre_prepare"

    __slots__ = ("view", "seq", "requests", "nondet")

    def __init__(self, view: int, seq: int, requests: Tuple[Request, ...],
                 nondet: bytes):
        self._body = self.body_size = self.sealed_digest = None
        self.auth = self.sig = None
        self.view = view
        self.seq = seq
        self.requests = tuple(requests)
        self.nondet = nondet

    def _fields(self) -> tuple:
        return (self.view, self.seq,
                tuple([r.sealed_digest or r.digest() for r in self.requests]),
                self.nondet)

    def batch_digest(self) -> bytes:
        """Digest that prepares/commits certify (covers seq/view/batch/nondet)."""
        return self.sealed_digest or self.digest()

    def wire_size(self) -> int:
        return super().wire_size() + sum(r.wire_size() for r in self.requests)


@record(view=int, seq=int, batch_digest=bytes, replica_id=str)
class Prepare(Message):
    kind = "prepare"

    __slots__ = ("view", "seq", "batch_digest", "replica_id")

    def __init__(self, view: int, seq: int, batch_digest: bytes, replica_id: str):
        self._body = self.body_size = self.sealed_digest = None
        self.auth = self.sig = None
        self.view = view
        self.seq = seq
        self.batch_digest = batch_digest
        self.replica_id = replica_id

    def _fields(self) -> tuple:
        return (self.view, self.seq, self.batch_digest, self.replica_id)


@record(view=int, seq=int, batch_digest=bytes, replica_id=str)
class Commit(Message):
    kind = "commit"

    __slots__ = ("view", "seq", "batch_digest", "replica_id")

    def __init__(self, view: int, seq: int, batch_digest: bytes, replica_id: str):
        self._body = self.body_size = self.sealed_digest = None
        self.auth = self.sig = None
        self.view = view
        self.seq = seq
        self.batch_digest = batch_digest
        self.replica_id = replica_id

    def _fields(self) -> tuple:
        return (self.view, self.seq, self.batch_digest, self.replica_id)


class CheckpointMsg(Message):
    """Announcement that a replica produced the checkpoint at ``seq``.

    Covers both the abstract-state root digest and the digest of the
    client reply cache — the reply cache is part of the replicated state
    (as in BFT), so replicas that catch up by state transfer de-duplicate
    retransmitted requests identically to those that executed them.
    """

    kind = "checkpoint"

    __slots__ = ("seq", "root_digest", "table_digest", "replica_id")

    def __init__(self, seq: int, root_digest: bytes, table_digest: bytes,
                 replica_id: str):
        super().__init__()
        self.seq = seq
        self.root_digest = root_digest
        self.table_digest = table_digest
        self.replica_id = replica_id

    def _fields(self) -> tuple:
        return (self.seq, self.root_digest, self.table_digest,
                self.replica_id)


@dataclass(frozen=True)
class PreparedProof:
    """Evidence carried in a VIEW-CHANGE that a batch prepared at a replica:
    the pre-prepare (with its requests) plus the view it prepared in."""

    view: int
    seq: int
    batch_digest: bytes
    pre_prepare: PrePrepare

    def summary(self) -> tuple:
        return (self.view, self.seq, self.batch_digest)


class ViewChange(Message):
    """Signed request to move to ``view``; carries the replica's stable
    checkpoint proof and its prepared certificates above it."""

    kind = "view_change"

    __slots__ = ("view", "last_stable", "checkpoint_proof", "prepared",
                 "replica_id")

    def __init__(self, view: int, last_stable: int,
                 checkpoint_proof: Tuple[CheckpointMsg, ...],
                 prepared: Tuple[PreparedProof, ...], replica_id: str):
        super().__init__()
        self.view = view
        self.last_stable = last_stable
        self.checkpoint_proof = tuple(checkpoint_proof)
        self.prepared = tuple(prepared)
        self.replica_id = replica_id

    def _fields(self) -> tuple:
        return (self.view, self.last_stable,
                tuple(m.digest() for m in self.checkpoint_proof),
                tuple(p.summary() for p in self.prepared),
                self.replica_id)

    def wire_size(self) -> int:
        return (super().wire_size()
                + sum(m.wire_size() for m in self.checkpoint_proof)
                + sum(p.pre_prepare.wire_size() for p in self.prepared))


class NewView(Message):
    """New primary's signed certificate of 2f+1 view-changes plus the
    pre-prepares it re-proposes for the new view."""

    kind = "new_view"

    __slots__ = ("view", "view_changes", "pre_prepares", "replica_id")

    def __init__(self, view: int, view_changes: Tuple[ViewChange, ...],
                 pre_prepares: Tuple[PrePrepare, ...], replica_id: str):
        super().__init__()
        self.view = view
        self.view_changes = tuple(view_changes)
        self.pre_prepares = tuple(pre_prepares)
        self.replica_id = replica_id

    def _fields(self) -> tuple:
        return (self.view,
                tuple(m.digest() for m in self.view_changes),
                tuple(m.digest() for m in self.pre_prepares),
                self.replica_id)

    def wire_size(self) -> int:
        return (super().wire_size()
                + sum(m.wire_size() for m in self.view_changes)
                + sum(m.wire_size() for m in self.pre_prepares))


# -- state transfer ---------------------------------------------------------


class FetchCert(Message):
    """Ask a replica for its latest stable checkpoint certificate."""

    kind = "fetch_cert"

    __slots__ = ("replica_id", "nonce")

    def __init__(self, replica_id: str, nonce: int):
        super().__init__()
        self.replica_id = replica_id
        self.nonce = nonce

    def _fields(self) -> tuple:
        return (self.replica_id, self.nonce)


class CertReply(Message):
    """Latest stable checkpoint certificate, plus (when one exists) the
    sender's latest NEW-VIEW message so that a recovering replica can
    catch up to the current view — the NEW-VIEW is self-validating."""

    kind = "cert_reply"

    __slots__ = ("replica_id", "nonce", "cert", "new_view")

    def __init__(self, replica_id: str, nonce: int,
                 cert: Tuple[CheckpointMsg, ...], new_view=None):
        super().__init__()
        self.replica_id = replica_id
        self.nonce = nonce
        self.cert = tuple(cert)
        self.new_view = new_view

    def _fields(self) -> tuple:
        return (self.replica_id, self.nonce,
                tuple(m.digest() for m in self.cert),
                self.new_view.digest() if self.new_view is not None
                else None)

    def wire_size(self) -> int:
        size = super().wire_size() + sum(m.wire_size() for m in self.cert)
        if self.new_view is not None:
            size += self.new_view.wire_size()
        return size


class FetchMeta(Message):
    """Fetch partition-tree metadata: the children of node ``index`` at
    tree ``level``, as of the stable checkpoint ``seq``."""

    kind = "fetch_meta"

    __slots__ = ("replica_id", "seq", "level", "index")

    def __init__(self, replica_id: str, seq: int, level: int, index: int):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq
        self.level = level
        self.index = index

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq, self.level, self.index)


class MetaReply(Message):
    kind = "meta_reply"

    __slots__ = ("replica_id", "seq", "level", "index", "children")

    def __init__(self, replica_id: str, seq: int, level: int, index: int,
                 children: Tuple[Tuple[bytes, int], ...]):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq
        self.level = level
        self.index = index
        self.children = tuple(children)  # (digest, last_modified_checkpoint)

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq, self.level, self.index,
                self.children)


class FetchObject(Message):
    kind = "fetch_object"

    __slots__ = ("replica_id", "seq", "index")

    def __init__(self, replica_id: str, seq: int, index: int):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq
        self.index = index

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq, self.index)


class ObjectReply(Message):
    kind = "object_reply"

    __slots__ = ("replica_id", "seq", "index", "value")

    def __init__(self, replica_id: str, seq: int, index: int, value: bytes):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq
        self.index = index
        self.value = value

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq, self.index, self.value)


class FetchTable(Message):
    """Fetch the client reply cache as of stable checkpoint ``seq``."""

    kind = "fetch_table"

    __slots__ = ("replica_id", "seq")

    def __init__(self, replica_id: str, seq: int):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq)


class TableReply(Message):
    kind = "table_reply"

    __slots__ = ("replica_id", "seq", "blob")

    def __init__(self, replica_id: str, seq: int, blob: bytes):
        super().__init__()
        self.replica_id = replica_id
        self.seq = seq
        self.blob = blob

    def _fields(self) -> tuple:
        return (self.replica_id, self.seq, self.blob)


class RecoveryRequest(Message):
    """Signed announcement that a replica is recovering; peers respond
    with their stable checkpoint certificates."""

    kind = "recovery_request"

    __slots__ = ("replica_id", "epoch")

    def __init__(self, replica_id: str, epoch: int):
        super().__init__()
        self.replica_id = replica_id
        self.epoch = epoch

    def _fields(self) -> tuple:
        return (self.replica_id, self.epoch)


# -- edge tier (bounded-staleness reads) ------------------------------------


class EdgeRead(Message):
    """An edge node's single-replica read: execute ``op`` against current
    state and answer with staleness evidence (no ordering, no quorum)."""

    kind = "edge_read"

    __slots__ = ("edge_id", "nonce", "op")

    def __init__(self, edge_id: str, nonce: int, op: bytes):
        super().__init__()
        self.edge_id = edge_id
        self.nonce = nonce
        self.op = op

    def _fields(self) -> tuple:
        return (self.edge_id, self.nonce, self.op)


class EdgeReadReply(Message):
    """One replica's answer to an :class:`EdgeRead`, carrying its version
    vector: the stable checkpoint it last proved (``checkpoint_seq`` and
    the abstract-state ``root_digest``) plus the sim-time lease anchor.

    Sim times ride as integer microseconds — canonical wire payloads
    must not carry floats (their bit patterns are not portable across
    encoders; see the WIRE-FLOAT lint rule).
    """

    kind = "edge_read_reply"

    __slots__ = ("replica_id", "edge_id", "nonce", "result", "result_digest",
                 "checkpoint_seq", "root_digest", "stable_at_us",
                 "issued_at_us")

    def __init__(self, replica_id: str, edge_id: str, nonce: int,
                 result: bytes, result_digest: bytes, checkpoint_seq: int,
                 root_digest: bytes, stable_at_us: int, issued_at_us: int):
        super().__init__()
        self.replica_id = replica_id
        self.edge_id = edge_id
        self.nonce = nonce
        self.result = result
        self.result_digest = result_digest
        self.checkpoint_seq = checkpoint_seq
        self.root_digest = root_digest
        self.stable_at_us = stable_at_us    # when the anchor went stable
        self.issued_at_us = issued_at_us    # when this read executed

    def _fields(self) -> tuple:
        return (self.replica_id, self.edge_id, self.nonce, self.result,
                self.result_digest, self.checkpoint_seq, self.root_digest,
                self.stable_at_us, self.issued_at_us)
