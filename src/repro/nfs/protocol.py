"""NFS version 2 protocol surface (RFC 1094 subset).

Both the conformance wrapper (client-facing, abstract) and the backends
(server-facing, concrete) speak in these terms.  Operations travel as
canonical-encoded tuples; results as ``(status, payload...)`` tuples.
Which procedures are read-only is not restated here: the wrapper's op
table declares it (``NfsConformanceWrapper.read_only_ops()``).

Hard links (LINK) are intentionally outside the common abstract
specification: the abstract state keeps a single parent index per object
(paper §3.1.1), which a multi-parent object would violate.  The wrapper
answers LINK with NFSERR_PERM; no phase of the Andrew benchmark needs it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import ServiceError


class NfsStatus(enum.IntEnum):
    """NFSv2 status codes (RFC 1094 §2.2.6, the ones this service uses),
    plus NFSv3's NFSERR_INVAL for a RENAME of a directory into its own
    subtree."""

    NFS_OK = 0
    NFSERR_PERM = 1
    NFSERR_NOENT = 2
    NFSERR_IO = 5
    NFSERR_EXIST = 17
    NFSERR_NOTDIR = 20
    NFSERR_ISDIR = 21
    NFSERR_INVAL = 22
    NFSERR_FBIG = 27
    NFSERR_NOSPC = 28
    NFSERR_ROFS = 30
    NFSERR_NAMETOOLONG = 63
    NFSERR_NOTEMPTY = 66
    NFSERR_DQUOT = 69
    NFSERR_STALE = 70


class NfsError(ServiceError):
    """Raised by backends and the wrapper; carries an :class:`NfsStatus`."""

    def __init__(self, status: NfsStatus, detail: str = ""):
        super().__init__(f"{status.name}{': ' + detail if detail else ''}")
        self.status = status


class FileType(enum.IntEnum):
    """NFSv2 ftype."""

    NFNON = 0   # the free/null abstract object
    NFREG = 1
    NFDIR = 2
    NFLNK = 5


class NfsProc(enum.Enum):
    """Protocol procedures (names double as wire op tags).

    NULL, ROOT, and WRITECACHE are wire-legal in RFC 1094 but outside
    the common abstract specification: no conformance wrapper registers
    a handler for them, so they draw the deterministic ``bad procedure``
    reply (a Byzantine client must not be able to crash a replica with a
    procedure the spec never promised).
    """

    NULL = "null"
    ROOT = "root"
    WRITECACHE = "writecache"
    GETATTR = "getattr"
    SETATTR = "setattr"
    LOOKUP = "lookup"
    READLINK = "readlink"
    READ = "read"
    WRITE = "write"
    CREATE = "create"
    REMOVE = "remove"
    RENAME = "rename"
    LINK = "link"
    SYMLINK = "symlink"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    READDIR = "readdir"
    STATFS = "statfs"


class Fattr(NamedTuple):
    """NFSv2 fattr.  Times are in integer microseconds.

    In the *abstract* view: ``fsid`` is always 0, ``fileid`` is the
    abstract array index, times are the agreed (nondeterministic-value)
    timestamps, and ``blocks`` is derived as ``ceil(size / 512)`` so every
    backend yields identical abstract attributes.
    """

    ftype: FileType
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    fsid: int
    fileid: int
    atime: int
    mtime: int
    ctime: int
    rdev: int = 0

    @property
    def blocks(self) -> int:
        return (self.size + 511) // 512

    def encode(self) -> tuple:
        return (int(self.ftype),) + self[1:]

    @classmethod
    def decode(cls, fields: tuple) -> "Fattr":
        (ftype, mode, nlink, uid, gid, size, fsid, fileid,
         atime, mtime, ctime, rdev) = fields
        return cls(FileType(ftype), mode, nlink, uid, gid, size, fsid,
                   fileid, atime, mtime, ctime, rdev)


class Sattr(NamedTuple):
    """Settable attributes (NFSv2 sattr); -1 means "don't change"."""

    mode: int = -1
    uid: int = -1
    gid: int = -1
    size: int = -1
    atime: int = -1
    mtime: int = -1

    def encode(self) -> tuple:
        return tuple(self)

    @classmethod
    def decode(cls, fields: tuple) -> "Sattr":
        return cls(*fields)

    def in_range(self) -> bool:
        """Every field is -1 or fits the unsigned XDR field the abstract
        object packs it into: uint ``mode``/``uid``/``gid``, uhyper
        ``atime``/``mtime`` (``size`` is bounded by capacity instead)."""
        return (min(self) >= -1
                and max(self.mode, self.uid, self.gid) <= 0xFFFFFFFF
                and max(self.atime, self.mtime) <= 0xFFFFFFFFFFFFFFFF)


class StatfsResult(NamedTuple):
    """NFSv2 statfs reply body."""

    tsize: int      # preferred transfer size
    bsize: int      # block size
    blocks: int     # total blocks
    bfree: int      # free blocks
    bavail: int     # blocks available to non-privileged users

    def encode(self) -> tuple:
        return tuple(self)

    @classmethod
    def decode(cls, fields: tuple) -> "StatfsResult":
        return cls(*fields)
