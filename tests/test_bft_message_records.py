"""Record encoders equal the specification.

``Message._fields()`` is the specification of a message's canonical
form; the codec's straight-line record encoders (compiled from the
``__slots__ = {field: type}`` declarations in ``bft/messages.py``) are an
implementation of it for the kinds that hold only scalars.  For every
``Message`` subclass, registered or not, ``body()`` must be
byte-identical to ``canonical((kind,) + _fields())``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bft import messages as M
from repro.encoding.canonical import (
    RECORD_ENCODERS, RECORD_FIELD_TYPES, canonical)

# Edge values: ids past the small-int cache and negative, node ids that
# are empty, non-ASCII or too long for the string cache, empty payloads.
ints = st.one_of(st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
                 st.sampled_from([0, 1, 4095, 4096, -1]))
ids = st.one_of(st.text(max_size=80),
                st.sampled_from(["", "replica0", "clïent-é", "n" * 65]))
blobs = st.binary(max_size=48)
flags = st.booleans()

requests = st.builds(M.Request, ids, ints, blobs, flags)
batches = st.lists(requests, max_size=8).map(tuple)
pre_prepares = st.builds(M.PrePrepare, ints, ints, batches, blobs)
checkpoints = st.builds(M.CheckpointMsg, ints, blobs, blobs, ids)
certs = st.lists(checkpoints, max_size=3).map(tuple)
proofs = st.builds(M.PreparedProof, ints, ints, blobs, pre_prepares)
view_changes = st.builds(M.ViewChange, ints, ints, certs,
                         st.lists(proofs, max_size=2).map(tuple), ids)
new_views = st.builds(M.NewView, ints,
                      st.lists(view_changes, max_size=2).map(tuple),
                      st.lists(pre_prepares, max_size=2).map(tuple), ids)

STRATEGIES = {
    M.Request: requests,
    M.Reply: st.builds(M.Reply, ints, ints, ids, ids,
                       st.one_of(st.none(), blobs), blobs, flags, flags),
    M.PrePrepare: pre_prepares,
    M.Prepare: st.builds(M.Prepare, ints, ints, blobs, ids),
    M.Commit: st.builds(M.Commit, ints, ints, blobs, ids),
    M.CheckpointMsg: checkpoints,
    M.ViewChange: view_changes,
    M.NewView: new_views,
    M.FetchCert: st.builds(M.FetchCert, ids, ints),
    M.CertReply: st.builds(M.CertReply, ids, ints, certs,
                           st.one_of(st.none(), new_views)),
    M.FetchMeta: st.builds(M.FetchMeta, ids, ints, ints, ints),
    M.MetaReply: st.builds(
        M.MetaReply, ids, ints, ints, ints,
        st.lists(st.tuples(blobs, ints), max_size=4).map(tuple)),
    M.FetchObject: st.builds(M.FetchObject, ids, ints, ints),
    M.ObjectReply: st.builds(M.ObjectReply, ids, ints, ints, blobs),
    M.FetchTable: st.builds(M.FetchTable, ids, ints),
    M.TableReply: st.builds(M.TableReply, ids, ints, blobs),
    M.RecoveryRequest: st.builds(M.RecoveryRequest, ids, ints),
    M.EdgeRead: st.builds(M.EdgeRead, ids, ints, blobs),
    M.EdgeReadReply: st.builds(M.EdgeReadReply, ids, ids, ints, blobs, blobs,
                               ints, blobs, ints, ints),
}

#: Every kind whose declared fields are all scalars.
RECORDS = {cls for cls in STRATEGIES
           if RECORD_FIELD_TYPES.issuperset(cls.__slots__.values())}
#: The trailing fields a constructor may omit, with the value they take.
DEFAULTS = {M.Request: {"read_only": False},
            M.Reply: {"tentative": False, "read_only": False},
            M.CertReply: {"new_view": None}}


def specification(msg: M.Message) -> bytes:
    return canonical((msg.kind,) + msg._fields())


def test_every_message_class_is_covered():
    assert set(STRATEGIES) == {cls for cls in M.Message.__subclasses__()
                               if cls.__module__ == M.__name__}
    assert {cls for cls in STRATEGIES if cls in RECORD_ENCODERS} == RECORDS
    assert len(RECORDS) == 14   # all but the composite four and MetaReply


@pytest.mark.parametrize("cls", sorted(STRATEGIES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_body_equals_specification(cls, data):
    msg = data.draw(STRATEGIES[cls])
    assert msg.body() == specification(msg)
    assert msg.body_size == len(msg.body())


@pytest.mark.parametrize("msg", [
    M.Reply(0, 1, "c", "r", None, b"d"),
    M.Reply(0, 1, "c", "r", b"", b"d"),
    M.Request("c", 4096, b"", True),
    # A field of another type than declared still encodes as the tuple
    # would: a record encoder must not turn True into 1 or 1 into "1".
    M.Request("c", True, b"", False),
    M.Request(7, 1.5, "text", 1),
    M.Request(("a", 1), None, None, None),
    M.Prepare(False, 2 ** 40, None, b"replica"),
    M.Commit(-1, 0, "digest", ""),
    M.CheckpointMsg("seq", b"root", 7, "r"),
    M.CheckpointMsg(1, None, None, "r"),
    M.ObjectReply("r", 1, 2.5, ("not", b"bytes")),
    M.ObjectReply("r", 1, 2, None),
    M.EdgeReadReply("r", "e", True, b"", b"", -1, "root", 2 ** 40, None),
    M.EdgeReadReply("r", "e", 1, None, None, 4096, None, 0, 0),
], ids=repr)
def test_record_encoder_edge_values(msg):
    assert msg.body() == specification(msg)


def test_subclass_of_a_record_encodes_its_own_fields():
    class Tagged(M.Request):
        __slots__ = ("tag",)
        kind = "tagged_request"

        def _fields(self):
            return super()._fields() + (self.tag,)

    msg = Tagged("c", 1, b"op")
    msg.tag = "extra"
    assert msg.body() == canonical(
        ("tagged_request", "c", 1, b"op", False, "extra"))


@pytest.mark.parametrize("bad", [float, set, dict, list, "int", None],
                         ids=repr)
def test_a_field_that_cannot_ride_the_wire_is_refused_at_declaration(bad):
    with pytest.raises(TypeError, match="Probe.when"):
        class Probe(M.Message):
            kind = "probe"
            __slots__ = {"replica_id": str, "when": bad}


_SAMPLE = {int: 7, str: "id", bytes: b"\x00", bool: True}


@pytest.mark.parametrize("cls", sorted(STRATEGIES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_constructor_takes_the_declared_fields_in_order(cls):
    fields = cls.__slots__
    # A tuple field is given as a list and held as a tuple; a field that
    # holds a message (CertReply.new_view) may be None.
    given = [[] if kind is tuple else _SAMPLE.get(kind) for kind in
             fields.values()]
    msg = cls(*given)
    assert [getattr(msg, name) for name in fields] == [
        () if kind is tuple else value
        for kind, value in zip(fields.values(), given)]
    assert (msg.body_size, msg.sealed_digest, msg.auth, msg.sig) == (None,) * 4

    defaults = DEFAULTS.get(cls, {})
    required = len(fields) - len(defaults)
    assert list(fields)[required:] == list(defaults)
    short = cls(*given[:required])
    assert {name: getattr(short, name) for name in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*given[:required - 1])
    assert cls(**dict(zip(fields, given))).body() == msg.body()
