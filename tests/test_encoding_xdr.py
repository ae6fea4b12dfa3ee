"""Unit and property tests for the XDR encoder/decoder."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.xdr import XdrDecoder, XdrEncoder
from repro.errors import EncodingError


def roundtrip(pack, unpack, value):
    enc = XdrEncoder()
    pack(enc, value)
    dec = XdrDecoder(enc.getvalue())
    out = unpack(dec)
    assert dec.done()
    return out


def test_uint_roundtrip_and_bounds():
    assert roundtrip(XdrEncoder.pack_uint, XdrDecoder.unpack_uint, 0) == 0
    assert roundtrip(XdrEncoder.pack_uint, XdrDecoder.unpack_uint, 2**32 - 1) == 2**32 - 1
    with pytest.raises(EncodingError):
        XdrEncoder().pack_uint(-1)
    with pytest.raises(EncodingError):
        XdrEncoder().pack_uint(2**32)


def test_alignment_padding():
    enc = XdrEncoder().pack_opaque(b"abc")
    data = enc.getvalue()
    assert len(data) == 8  # 4 length + 3 data + 1 pad
    assert data[7:8] == b"\x00"
    for n, wire in ((3, 8), (4, 8), (5, 12)):
        assert len(XdrEncoder().pack_opaque(b"x" * n).getvalue()) == wire


def test_fixed_opaque_size_enforced():
    with pytest.raises(EncodingError):
        XdrDecoder(b"abc").unpack_fixed_opaque(4)


def test_truncated_data_raises():
    with pytest.raises(EncodingError):
        XdrDecoder(b"\x00\x00").unpack_uint()


def test_corrupt_array_length_rejected_early():
    enc = XdrEncoder().pack_uint(2**31)  # absurd count
    with pytest.raises(EncodingError):
        XdrDecoder(enc.getvalue()).unpack_array(XdrDecoder.unpack_uint)


def test_heterogeneous_sequence():
    enc = XdrEncoder()
    enc.pack_uint(7).pack_string("hello").pack_opaque(b"\x01").pack_uhyper(2**40)
    enc.pack_array([1, 2, 3], lambda e, v: e.pack_uint(v))
    dec = XdrDecoder(enc.getvalue())
    assert dec.unpack_uint() == 7
    assert dec.unpack_string() == "hello"
    assert dec.unpack_opaque() == b"\x01"
    assert dec.unpack_uhyper() == 2**40
    assert dec.unpack_array(XdrDecoder.unpack_uint) == [1, 2, 3]
    assert dec.done()


@given(st.binary(max_size=300))
def test_opaque_roundtrip(data):
    assert roundtrip(XdrEncoder.pack_opaque, XdrDecoder.unpack_opaque, data) == data


@given(st.text(max_size=100))
def test_string_roundtrip(text):
    assert roundtrip(XdrEncoder.pack_string, XdrDecoder.unpack_string, text) == text


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uhyper_roundtrip(value):
    assert roundtrip(XdrEncoder.pack_uhyper, XdrDecoder.unpack_uhyper, value) == value


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50))
def test_int_array_roundtrip(values):
    enc = XdrEncoder().pack_array(values, lambda e, v: e.pack_uint(v))
    assert XdrDecoder(enc.getvalue()).unpack_array(XdrDecoder.unpack_uint) == values


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_encoding_is_injective_for_opaque_pairs(a, b):
    """Canonical encoding: distinct (a, b) pairs yield distinct bytes."""
    enc1 = XdrEncoder().pack_opaque(a).pack_opaque(b).getvalue()
    enc2 = XdrEncoder().pack_opaque(b).pack_opaque(a).getvalue()
    if a != b:
        assert enc1 != enc2
