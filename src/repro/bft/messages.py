"""BFT protocol messages.

Each message exposes:

- ``kind`` — dispatch key used by :class:`repro.sim.node.Node`;
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

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.crypto.digest import digest as sha_digest
from repro.crypto.signatures import SIGNATURE_SIZE
from repro.encoding.canonical import (
    RECORD_ENCODERS, RECORD_FIELD_TYPES, canonical, register_record)

NULL_CLIENT = "__null__"

# A contract's proof is one of a closed set: none, for contents that
# verify themselves; the principal being a group member (no crypto); a
# MAC authenticator the principal made; the principal's signature.
OPEN, MEMBER, MAC, SIG = PROOFS = ("open", "member", "mac", "signature")
PRIMARY = "the primary of view"          # a principal no field names
CURRENT, LATER = "our view", "a later view"


class Contract(NamedTuple):
    """Who may send a kind a replica receives, and how it is proven;
    ``Replica.on_message`` enforces it before dispatch.  ``principal``
    is the field naming the sender (a ``replica_id`` must be a group
    member), ``PRIMARY``, or None when the proof is ``OPEN``; the
    transport source must be it unless ``relayed``; a ``view`` rule is
    screened before any proof is charged."""

    principal: Optional[str]
    proof: str
    relayed: bool = False
    view: Optional[str] = None      # CURRENT or LATER


def verify_auth(node, principal: str, msg: "Message") -> bool:
    """The one MAC check, at replicas, clients and edge nodes: ``msg``
    carries an authenticator ``principal`` made with a valid tag for
    ``node``.  A missing or another's is refused free; a tag is charged."""
    auth = msg.auth
    if auth is None or auth.sender != principal:
        return False
    size = msg.body_size
    if size is None:
        size = len(msg.body())
    node.charge(node.costs.auth_verify(size))
    return auth.verify(node.registry, node.node_id,
                       msg.sealed_digest or msg.digest())


class Message:
    """Base for protocol messages.  A kind is declared once: a ``kind``
    literal, ``__slots__ = {field: type}`` in wire order, a ``contract``
    if replicas receive it, and its own ``_fields()`` only when what it
    sends is not what it holds.  So
    ``cls.__slots__`` over ``Message.__subclasses__()`` is the catalogue
    of what every kind carries (docs/PROTOCOL.md, "Wire messages")."""

    kind = "message"

    __slots__ = ("_body", "body_size", "sealed_digest", "auth", "sig")

    def __init_subclass__(cls) -> None:
        """Derive the constructor, ``_fields()`` and the record encoder.
        A field is ``int``, ``str``, ``bool``, ``bytes`` or a ``Message``
        class (both admit ``None``) or ``tuple`` (the constructor coerces
        it); a float, set or dict is refused here, so none reaches the
        wire.  ``_defaults`` holds the last fields' defaults, as a ``def``
        would.  A test's subclass with plain slots inherits all three."""
        fields = cls.__dict__.get("__slots__")
        if type(fields) is not dict:
            return
        for name, kind in fields.items():
            if not (kind in RECORD_FIELD_TYPES or kind is tuple
                    or isinstance(kind, type) and issubclass(kind, Message)):
                raise TypeError(f"{cls.__name__}.{name}: no wire type {kind!r}")
        stores = "\n    ".join(
            f"self.{name} = {f'tuple({name})' if kind is tuple else name}"
            for name, kind in fields.items())
        derived: dict = {}
        # One frame per message: the five base slots and the kind's own.
        exec(f"def __init__(self, {', '.join(fields)}):\n"
             "    self._body = self.body_size = self.sealed_digest = None\n"
             "    self.auth = self.sig = None\n"
             f"    {stores}\n"
             "def _fields(self):\n"
             f"    return ({''.join(f'self.{name}, ' for name in fields)})\n",
             derived)
        derived["__init__"].__defaults__ = cls.__dict__.get("_defaults")
        cls.__init__ = derived["__init__"]
        if "_fields" not in cls.__dict__:   # it sends what it holds
            cls._fields = derived["_fields"]
            if RECORD_FIELD_TYPES.issuperset(fields.values()):
                register_record(cls, cls.kind, fields)

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


class Request(Message):
    """Client request to execute ``op`` (opaque service-level bytes)."""

    kind = "request"
    __slots__ = {"client_id": str, "request_id": int, "op": bytes,
                 "read_only": bool}
    contract = Contract("client_id", MAC, relayed=True)   # backups relay it
    _defaults = (False,)

    @classmethod
    def null(cls) -> "Request":
        """The no-op request used to fill sequence-number gaps after a
        view change."""
        return cls(NULL_CLIENT, 0, b"")

    @property
    def is_null(self) -> bool:
        return self.client_id == NULL_CLIENT


class Reply(Message):
    """Replica's reply; carries the full result or only its digest when
    the tentative-reply optimization designates another replica."""

    kind = "reply"
    __slots__ = {
        "view": int, "request_id": int, "client_id": str, "replica_id": str,
        "result": bytes, "result_digest": bytes, "tentative": bool,
        # Distinguishes read-only-optimization replies (executed against
        # the replica's current state, never ordered) from ordered
        # tentative replies (executed at prepared, commit pending).  A
        # client that fell back from the read-only path must not count
        # straggling read-only replies toward the ordered quorum.
        "read_only": bool,
    }
    _defaults = (False, False)


class PrePrepare(Message):
    """Primary's ordering proposal for a batch of requests at ``seq``.

    Carries the requests themselves (piggybacked, as in the BFT
    implementation) plus the primary's nondeterministic value for the
    batch (BASE's ``propose_value`` output).
    """

    kind = "pre_prepare"
    __slots__ = {"view": int, "seq": int,
                 "requests": tuple,     # of Request
                 "nondet": bytes}
    contract = Contract(PRIMARY, MAC, view=CURRENT)

    def _fields(self) -> tuple:
        return (self.view, self.seq,
                tuple([r.sealed_digest or r.digest() for r in self.requests]),
                self.nondet)

    def batch_digest(self) -> bytes:
        """Digest that prepares/commits certify (covers seq/view/batch/nondet)."""
        return self.sealed_digest or self.digest()

    def wire_size(self) -> int:
        return super().wire_size() + sum(r.wire_size() for r in self.requests)


class Prepare(Message):
    kind = "prepare"
    __slots__ = {"view": int, "seq": int, "batch_digest": bytes,
                 "replica_id": str}
    contract = Contract("replica_id", MAC, view=CURRENT)


class Commit(Message):
    kind = "commit"
    __slots__ = {"view": int, "seq": int, "batch_digest": bytes,
                 "replica_id": str}
    contract = Contract("replica_id", MAC, view=CURRENT)


class CheckpointMsg(Message):
    """Announcement that a replica produced the checkpoint at ``seq``.

    Covers both the abstract-state root digest and the digest of the
    client reply cache — the reply cache is part of the replicated state
    (as in BFT), so replicas that catch up by state transfer de-duplicate
    retransmitted requests identically to those that executed them.
    """

    kind = "checkpoint"
    __slots__ = {"seq": int, "root_digest": bytes, "table_digest": bytes,
                 "replica_id": str}
    contract = Contract("replica_id", SIG)


@dataclass(frozen=True)
class PreparedProof:
    """Evidence carried in a VIEW-CHANGE that a batch prepared at a replica:
    the pre-prepare (with its requests) plus the view it prepared in.
    Inside a NEW-VIEW only the summary travels (``pre_prepare`` None)."""

    view: int
    seq: int
    batch_digest: bytes
    pre_prepare: Optional[PrePrepare]

    def summary(self) -> tuple:
        return (self.view, self.seq, self.batch_digest)


class ViewChange(Message):
    """Signed request to move to ``view``; carries the replica's stable
    checkpoint proof and its prepared certificates above it."""

    kind = "view_change"
    __slots__ = {"view": int, "last_stable": int,
                 "checkpoint_proof": tuple,     # of CheckpointMsg
                 "prepared": tuple,             # of PreparedProof
                 "replica_id": str}
    contract = Contract("replica_id", SIG, view=LATER)

    def _fields(self) -> tuple:
        return (self.view, self.last_stable,
                tuple(m.digest() for m in self.checkpoint_proof),
                tuple(p.summary() for p in self.prepared),
                self.replica_id)

    def wire_size(self) -> int:
        return (super().wire_size()
                + sum(m.wire_size() for m in self.checkpoint_proof)
                + sum(p.pre_prepare.wire_size() for p in self.prepared
                      if p.pre_prepare is not None))

    def summarized(self) -> "ViewChange":
        """This VIEW-CHANGE as its signature covers it, as a NEW-VIEW
        embeds it: the same body and signature, each prepared proof cut
        to its summary (the new primary has the batches already)."""
        vc = ViewChange(self.view, self.last_stable, self.checkpoint_proof,
                        [PreparedProof(*p.summary(), None)
                         for p in self.prepared], self.replica_id)
        vc.sig, vc._body, vc.body_size, vc.sealed_digest = (
            self.sig, self._body, self.body_size, self.sealed_digest)
        return vc


class NewView(Message):
    """New primary's signed certificate of 2f+1 view-changes, each
    :meth:`~ViewChange.summarized`, plus the pre-prepares (with their
    requests) it re-proposes for the new view."""

    kind = "new_view"
    __slots__ = {"view": int,
                 "view_changes": tuple,     # of ViewChange
                 "pre_prepares": tuple,     # of PrePrepare
                 "replica_id": str}
    # CERT-REPLY forwards it: the primary's signature is the proof.
    contract = Contract(PRIMARY, SIG, relayed=True, view=LATER)

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
    __slots__ = {"replica_id": str, "nonce": int}
    contract = Contract("replica_id", MEMBER)   # the answer holds a NEW-VIEW


class CertReply(Message):
    """Latest stable checkpoint certificate, plus (when one exists) the
    sender's latest NEW-VIEW message so that a recovering replica can
    catch up to the current view — the NEW-VIEW is self-validating."""

    kind = "cert_reply"
    __slots__ = {"replica_id": str, "nonce": int,
                 "cert": tuple,     # of CheckpointMsg
                 "new_view": NewView}
    # An empty ``cert`` proves nothing, and recovery counts who sent one.
    contract = Contract("replica_id", MEMBER)
    _defaults = (None,)

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
    __slots__ = {"replica_id": str, "seq": int, "level": int, "index": int}
    contract = Contract("replica_id", MEMBER)


class MetaReply(Message):
    kind = "meta_reply"
    __slots__ = {"replica_id": str, "seq": int, "level": int, "index": int,
                 "children": tuple}     # of (digest, last_modified_checkpoint)
    contract = Contract(None, OPEN)


class FetchObject(Message):
    kind = "fetch_object"
    __slots__ = {"replica_id": str, "seq": int, "index": int}
    contract = Contract("replica_id", MEMBER)


class ObjectReply(Message):
    kind = "object_reply"
    __slots__ = {"replica_id": str, "seq": int, "index": int, "value": bytes}
    contract = Contract(None, OPEN)


class FetchTable(Message):
    """Fetch the client reply cache as of stable checkpoint ``seq``."""

    kind = "fetch_table"
    __slots__ = {"replica_id": str, "seq": int}
    contract = Contract("replica_id", MEMBER)


class TableReply(Message):
    kind = "table_reply"
    __slots__ = {"replica_id": str, "seq": int, "blob": bytes}
    contract = Contract(None, OPEN)


class RecoveryRequest(Message):
    """Signed announcement that a replica is recovering; peers respond
    with their stable checkpoint certificates."""

    kind = "recovery_request"
    __slots__ = {"replica_id": str, "epoch": int}
    contract = Contract("replica_id", SIG)


# -- edge tier (bounded-staleness reads) ------------------------------------


class EdgeRead(Message):
    """An edge node's single-replica read: execute ``op`` against current
    state and answer with staleness evidence (no ordering, no quorum)."""

    kind = "edge_read"
    __slots__ = {"edge_id": str, "nonce": int, "op": bytes}
    contract = Contract("edge_id", MAC)


class EdgeReadReply(Message):
    """One replica's answer to an :class:`EdgeRead`, carrying its version
    vector: the stable checkpoint it last proved (``checkpoint_seq`` and
    the abstract-state ``root_digest``) plus the sim-time lease anchor.

    Sim times ride as integer microseconds — canonical wire payloads
    must not carry floats (their bit patterns are not portable across
    encoders; see the WIRE-FLOAT lint rule).
    """

    kind = "edge_read_reply"
    __slots__ = {
        "replica_id": str, "edge_id": str, "nonce": int, "result": bytes,
        "result_digest": bytes, "checkpoint_seq": int, "root_digest": bytes,
        "stable_at_us": int,    # when the anchor went stable
        "issued_at_us": int,    # when this read executed
    }
