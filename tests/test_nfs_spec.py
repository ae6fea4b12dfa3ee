"""The abstract specification codec: XDR object encoding, oids, limits."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.canonical import canonical
from repro.errors import EncodingError
from repro.nfs.protocol import Fattr, FileType, Sattr, StatfsResult
from repro.nfs.spec import (
    AbstractMeta,
    AbstractObject,
    AbstractSpecConfig,
    ROOT_OID,
    decode_object,
    encode_object,
    initial_object,
    oid_bytes,
    oid_parse,
)

META = AbstractMeta(mode=0o644, uid=1, gid=2, atime=10, mtime=20, ctime=30,
                    parent=0)


def test_oid_roundtrip():
    assert oid_parse(oid_bytes(7, 42)) == (7, 42)
    assert oid_parse(ROOT_OID) == (0, 1)


def test_oid_bad_length():
    with pytest.raises(EncodingError):
        oid_parse(b"\x00\x01")


def test_null_object_roundtrip():
    obj = AbstractObject(FileType.NFNON, gen=5)
    decoded = decode_object(encode_object(obj))
    assert decoded.is_free and decoded.gen == 5


def test_file_object_roundtrip():
    obj = AbstractObject(FileType.NFREG, 3, META, data=b"contents")
    decoded = decode_object(encode_object(obj))
    assert decoded.ftype == FileType.NFREG
    assert decoded.data == b"contents"
    assert decoded.meta == META


def test_directory_object_roundtrip_sorted():
    entries = (("a", 1, 1), ("b", 2, 1), ("c", 3, 2))
    obj = AbstractObject(FileType.NFDIR, 1, META, entries=entries)
    decoded = decode_object(encode_object(obj))
    assert decoded.entries == entries


def test_directory_unsorted_rejected():
    obj = AbstractObject(FileType.NFDIR, 1, META,
                         entries=(("b", 1, 1), ("a", 2, 1)))
    with pytest.raises(EncodingError):
        encode_object(obj)


def test_symlink_roundtrip():
    obj = AbstractObject(FileType.NFLNK, 2, META, target="../there")
    assert decode_object(encode_object(obj)).target == "../there"


def test_missing_meta_rejected():
    with pytest.raises(EncodingError):
        encode_object(AbstractObject(FileType.NFREG, 1, None))


def test_trailing_garbage_rejected():
    blob = encode_object(AbstractObject(FileType.NFNON, 1)) + b"\x00" * 4
    with pytest.raises(EncodingError):
        decode_object(blob)


def test_initial_state():
    root = initial_object(0)
    assert root.ftype == FileType.NFDIR
    assert root.gen == 1
    assert root.meta.parent == 0
    free = initial_object(5)
    assert free.is_free and free.gen == 0


def test_abstract_size_accounting():
    small = AbstractObject(FileType.NFREG, 1, META, data=b"")
    big = AbstractObject(FileType.NFREG, 1, META, data=b"x" * 1000)
    assert big.abstract_size() - small.abstract_size() == 1000
    d = AbstractObject(FileType.NFDIR, 1, META,
                       entries=(("name", 1, 1),))
    assert d.abstract_size() > 64


def test_spec_config_validation():
    with pytest.raises(ValueError):
        AbstractSpecConfig(array_size=0)


@given(st.binary(max_size=500), st.integers(0, 2**32 - 1))
def test_file_encoding_injective_in_data_and_gen(data, gen):
    a = encode_object(AbstractObject(FileType.NFREG, gen, META, data=data))
    b = encode_object(AbstractObject(FileType.NFREG, gen, META,
                                     data=data + b"!"))
    assert a != b


@given(st.lists(st.tuples(st.text(min_size=1, max_size=10,
                                  alphabet="abcdefgh"),
                          st.integers(1, 100), st.integers(1, 5)),
                max_size=8, unique_by=lambda e: e[0]))
def test_directory_roundtrip_property(entries):
    entries = tuple(sorted(entries, key=lambda e: e[0]))
    obj = AbstractObject(FileType.NFDIR, 1, META, entries=entries)
    assert decode_object(encode_object(obj)).entries == entries


# -- the five value records ---------------------------------------------------------
#
# (class, field names in order, defaults of the trailing fields, a sample,
# encode, decode).  The abstract-state pair has no codec of its own: it
# travels inside ``encode_object``.

def _meta_via_object(meta):
    return encode_object(AbstractObject(FileType.NFREG, 1, meta))


RECORDS = [
    (Fattr,
     ("ftype", "mode", "nlink", "uid", "gid", "size", "fsid", "fileid",
      "atime", "mtime", "ctime", "rdev"), {"rdev": 0},
     Fattr(FileType.NFREG, 0o644, 1, 10, 20, 3000, 0, 7, 1_000_001,
           2_000_002, 3_000_003),
     Fattr.encode, Fattr.decode),
    (Sattr, ("mode", "uid", "gid", "size", "atime", "mtime"),
     dict.fromkeys(("mode", "uid", "gid", "size", "atime", "mtime"), -1),
     Sattr(mode=0o600, size=12), Sattr.encode, Sattr.decode),
    (StatfsResult, ("tsize", "bsize", "blocks", "bfree", "bavail"), {},
     StatfsResult(8192, 4096, 65536, 65000, 65000),
     StatfsResult.encode, StatfsResult.decode),
    (AbstractMeta,
     ("mode", "uid", "gid", "atime", "mtime", "ctime", "parent"), {},
     META, _meta_via_object, lambda blob: decode_object(blob).meta),
    (AbstractObject, ("ftype", "gen", "meta", "data", "entries", "target"),
     {"meta": None, "data": b"", "entries": (), "target": ""},
     AbstractObject(FileType.NFDIR, 2, META, entries=(("a", 1, 1),)),
     encode_object, decode_object),
]


@pytest.mark.parametrize("cls, names, defaults, sample, encode, decode",
                         RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_value_record_contract(cls, names, defaults, sample, encode, decode):
    # Field order and defaults.
    required = len(names) - len(defaults)
    positional = cls(*range(len(names)))
    assert [getattr(positional, name) for name in names] == \
        list(range(len(names)))
    short = cls(*range(required))
    assert {name: getattr(short, name) for name in names[required:]} == \
        defaults
    # The codec is the identity on values.
    assert decode(encode(sample)) == sample
    # Equality and hash by value; no assignment.
    twin = cls(*(getattr(sample, name) for name in names))
    assert twin is not sample and twin == sample
    assert hash(twin) == hash(sample)
    assert positional != sample
    with pytest.raises(AttributeError):
        setattr(sample, names[0], 0)
    # Wrong arity is a TypeError (the kernel's malformed-request reply).
    with pytest.raises(TypeError):
        cls(*range(len(names) + 1))
    if required:
        with pytest.raises(TypeError):
            cls(*range(required - 1))
    if cls in (Sattr, StatfsResult):
        with pytest.raises(TypeError):
            cls.decode(tuple(range(len(names) + 1)))
    # A record is not a wire value: only its ``encode()`` tuple is.
    with pytest.raises(EncodingError):
        canonical(sample)
    with pytest.raises(EncodingError):
        canonical((0, sample))
