"""Property tests for the canonical tuple encoding."""

import pytest
from hypothesis import assume, given, strategies as st

from repro.encoding.canonical import canonical, decanonical
from repro.errors import EncodingError

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.binary(max_size=100),
    st.text(max_size=50),
)
values = st.recursive(scalars,
                      lambda children: st.lists(children, max_size=6)
                      .map(tuple),
                      max_leaves=25)


def normalize(value):
    if isinstance(value, list):
        return tuple(normalize(v) for v in value)
    if isinstance(value, tuple):
        return tuple(normalize(v) for v in value)
    return value


@given(values)
def test_roundtrip(value):
    assert decanonical(canonical(value)) == normalize(value)


@given(values, values)
def test_injective(a, b):
    if normalize(a) != normalize(b):
        assert canonical(a) != canonical(b)


@given(values)
def test_deterministic(value):
    assert canonical(value) == canonical(value)


def test_type_tags_distinguish_lookalikes():
    assert canonical(0) != canonical(False)
    assert canonical(1) != canonical(True)
    assert canonical(b"x") != canonical("x")
    assert canonical(()) != canonical(None)
    assert canonical((1,)) != canonical(1)


def test_unencodable_type_rejected():
    with pytest.raises(EncodingError):
        canonical({"dict": 1})
    with pytest.raises(EncodingError):
        canonical(object())


def test_trailing_bytes_rejected():
    blob = canonical(42) + b"\x00"
    with pytest.raises(EncodingError):
        decanonical(blob)


def test_truncation_rejected():
    blob = canonical((1, 2, 3))
    with pytest.raises(EncodingError):
        decanonical(blob[:-2])


def test_unknown_tag_rejected():
    with pytest.raises(EncodingError):
        decanonical(b"Z")


def test_large_int_roundtrip():
    huge = 2 ** 200
    assert decanonical(canonical(huge)) == huge
    assert decanonical(canonical(-huge)) == -huge


def test_float_roundtrip():
    assert decanonical(canonical(3.14159)) == 3.14159


# -- strict decoding ------------------------------------------------------------

MALFORMED = [
    b"S\x00\x00\x00\x01\xff",        # bad UTF-8 (was UnicodeDecodeError)
    b"I\x00\x00\x00\x01x",           # non-numeric int (was ValueError)
    b"I\x00\x00\x00\x00",            # the empty int (was ValueError)
    b"I\x00\x00\x00\x03007",         # decoded to 7: a second spelling
    b"I\x00\x00\x00\x02+7",
    b"I\x00\x00\x00\x02 7",
    b"I\x00\x00\x00\x031_0",
    b"I\x00\x00\x00\x02-0",
    b"I\x00\x00\x00\x04\xd9\xa1\xd9\xa2",   # Arabic-Indic digits
]


@pytest.mark.parametrize("blob", MALFORMED, ids=repr)
def test_malformed_input_raises_encoding_error(blob):
    with pytest.raises(EncodingError):
        decanonical(blob)
    # Nested, the same leaf is refused the same way.
    with pytest.raises(EncodingError):
        decanonical(b"L\x00\x00\x00\x02" + canonical("ok") + blob)


def test_truncation_at_every_cut_point():
    value = ("update", ("accounts", 4096, -7), b"\x00\xff", None, True,
             False, 2.5, ((), ("é", b"")))
    blob = canonical(value)
    assert decanonical(blob) == value
    for cut in range(len(blob)):
        with pytest.raises(EncodingError):
            decanonical(blob[:cut])


def test_excessive_nesting_raises_encoding_error():
    with pytest.raises(EncodingError):
        decanonical(b"L\x00\x00\x00\x01" * 100_000 + b"N")


leaves = st.one_of(
    scalars, st.floats(allow_nan=False),
    st.integers(min_value=-5000, max_value=5000))
nested_tuples = st.recursive(
    leaves, lambda children: st.lists(children, max_size=5).map(tuple),
    max_leaves=30)


@given(nested_tuples)
def test_roundtrip_all_leaf_types(value):
    decoded = decanonical(canonical(value))
    assert decoded == value
    # One byte string per value: decoding accepts only what encoding makes.
    assert canonical(decoded) == canonical(value)


@given(st.binary(max_size=40))
def test_arbitrary_bytes_decode_or_raise_encoding_error(blob):
    assume(b"D" not in blob)    # NaN payloads need not survive the host
    try:
        value = decanonical(blob)
    except EncodingError:
        return
    assert canonical(value) == blob
