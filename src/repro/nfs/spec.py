"""The common abstract specification for the file service (paper §3.1.1).

The abstract state is a fixed-size array of (object, generation) pairs.
Each object is a file, directory, symlink, or the special *null* object
marking a free entry.  Object ids (``oid``) concatenate array index and
generation; clients use oids as their NFS file handles.  Every entry is
encoded with XDR so that all replicas — whatever implementation they wrap
— produce byte-identical abstract objects.

Determinism rules the spec adds on top of RFC 1094:

- oids are assigned deterministically (lowest free index; generation
  incremented on each assignment);
- directory entries are returned in lexicographic order;
- timestamps are the agreed nondeterministic values, never local clocks;
  reads do not update atime;
- environment-dependent errors are virtualized: NFSERR_NOSPC against an
  abstract capacity, NFSERR_FBIG against an abstract maximum file size,
  NFSERR_NAMETOOLONG against an abstract name limit — all chosen low
  enough that no correct concrete implementation fails first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.encoding.xdr import XdrDecoder, XdrEncoder
from repro.errors import EncodingError
from repro.nfs.protocol import FileType


@dataclass(frozen=True)
class AbstractSpecConfig:
    """Virtualized limits of the common specification."""

    array_size: int = 4096
    capacity_bytes: int = 256 * 1024 * 1024
    max_file_size: int = 8 * 1024 * 1024
    max_name_len: int = 180

    def __post_init__(self):
        if self.array_size < 1:
            raise ValueError("array_size must be positive")


# -- object ids ----------------------------------------------------------------

OID_SIZE = 8


def oid_bytes(index: int, gen: int) -> bytes:
    """Client-visible file handle: index ++ generation."""
    return struct.pack(">II", index, gen)


def oid_parse(fh: bytes) -> Tuple[int, int]:
    if len(fh) != OID_SIZE:
        raise EncodingError(f"oid must be {OID_SIZE} bytes, got {len(fh)}")
    return struct.unpack(">II", fh)


ROOT_OID = oid_bytes(0, 1)


# -- abstract objects ---------------------------------------------------------------

#: What every live object counts against the virtual capacity before its
#: data, symlink target or directory entries.
OBJECT_BYTES = 64


def entry_bytes(name: str) -> int:
    """What one directory entry named ``name`` counts."""
    return len(name.encode("utf-8")) + 16


class AbstractMeta(NamedTuple):
    """Meta-data of a non-null abstract object.

    ``parent`` is the array index of the containing directory (the paper
    keeps it, although redundant, to simplify the inverse abstraction
    function and recovery).  Times are agreed microsecond values.
    """

    mode: int
    uid: int
    gid: int
    atime: int
    mtime: int
    ctime: int
    parent: int


class AbstractObject(NamedTuple):
    """One decoded entry of the abstract state array."""

    ftype: FileType
    gen: int
    meta: Optional[AbstractMeta] = None
    data: bytes = b""                                  # files
    entries: Tuple[Tuple[str, int, int], ...] = ()     # dirs: (name, idx, gen)
    target: str = ""                                   # symlinks

    @property
    def is_free(self) -> bool:
        return self.ftype == FileType.NFNON

    def abstract_size(self) -> int:
        """Bytes this object contributes to the virtual capacity."""
        if self.ftype == FileType.NFREG:
            return OBJECT_BYTES + len(self.data)
        if self.ftype == FileType.NFDIR:
            return OBJECT_BYTES + sum(entry_bytes(name)
                                      for name, _, _ in self.entries)
        if self.ftype == FileType.NFLNK:
            return OBJECT_BYTES + len(self.target.encode("utf-8"))
        return 0


def _pack_meta(enc: XdrEncoder, meta: AbstractMeta) -> None:
    enc.pack_uint(meta.mode)
    enc.pack_uint(meta.uid)
    enc.pack_uint(meta.gid)
    enc.pack_uhyper(meta.atime)
    enc.pack_uhyper(meta.mtime)
    enc.pack_uhyper(meta.ctime)
    enc.pack_uint(meta.parent)


def _unpack_meta(dec: XdrDecoder) -> AbstractMeta:
    return AbstractMeta(dec.unpack_uint(), dec.unpack_uint(),
                        dec.unpack_uint(), dec.unpack_uhyper(),
                        dec.unpack_uhyper(), dec.unpack_uhyper(),
                        dec.unpack_uint())


def encode_object(obj: AbstractObject) -> bytes:
    """Canonical XDR encoding of one abstract array entry."""
    enc = XdrEncoder()
    enc.pack_uint(int(obj.ftype))
    enc.pack_uint(obj.gen)
    if obj.is_free:
        return enc.getvalue()
    if obj.meta is None:
        raise EncodingError("non-null abstract object requires meta")
    _pack_meta(enc, obj.meta)
    if obj.ftype == FileType.NFREG:
        enc.pack_opaque(obj.data)
    elif obj.ftype == FileType.NFDIR:
        # Entries must already be lexicographically sorted.
        names = [name for name, _, _ in obj.entries]
        if names != sorted(names):
            raise EncodingError("directory entries must be sorted")
        enc.pack_array(list(obj.entries), _pack_dir_entry)
    elif obj.ftype == FileType.NFLNK:
        enc.pack_string(obj.target)
    else:
        raise EncodingError(f"unencodable type {obj.ftype}")
    return enc.getvalue()


def _pack_dir_entry(enc: XdrEncoder, entry: Tuple[str, int, int]) -> None:
    name, index, gen = entry
    enc.pack_string(name)
    enc.pack_uint(index)
    enc.pack_uint(gen)


def _unpack_dir_entry(dec: XdrDecoder) -> Tuple[str, int, int]:
    return (dec.unpack_string(), dec.unpack_uint(), dec.unpack_uint())


def decode_object(blob: bytes) -> AbstractObject:
    dec = XdrDecoder(blob)
    ftype = FileType(dec.unpack_uint())
    gen = dec.unpack_uint()
    if ftype == FileType.NFNON:
        if not dec.done():
            raise EncodingError("trailing bytes after null object")
        return AbstractObject(ftype, gen)
    meta = _unpack_meta(dec)
    if ftype == FileType.NFREG:
        obj = AbstractObject(ftype, gen, meta, data=dec.unpack_opaque())
    elif ftype == FileType.NFDIR:
        entries = tuple(dec.unpack_array(_unpack_dir_entry))
        obj = AbstractObject(ftype, gen, meta, entries=entries)
    elif ftype == FileType.NFLNK:
        obj = AbstractObject(ftype, gen, meta, target=dec.unpack_string())
    else:
        raise EncodingError(f"undecodable type {ftype}")
    if not dec.done():
        raise EncodingError("trailing bytes after abstract object")
    return obj


def initial_object(index: int) -> AbstractObject:
    """Initial abstract state: entry 0 is the root directory, the rest are
    free entries with generation 0."""
    if index == 0:
        meta = AbstractMeta(0o755, 0, 0, 0, 0, 0, parent=0)
        return AbstractObject(FileType.NFDIR, 1, meta)
    return AbstractObject(FileType.NFNON, 0)
