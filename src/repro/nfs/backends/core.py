"""Shared in-memory file-system core for the simulated NFS backends.

The core implements the NFSv2 server operations over an inode table;
vendor subclasses customize the concrete behaviours the wrapper must
mask: file-handle encoding, readdir ordering, timestamp granularity,
write stability, limits, and cost profile.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.nfs.protocol import (
    Fattr,
    FileType,
    NfsError,
    NfsStatus,
    Sattr,
    StatfsResult,
)


@dataclass
class CostProfile:
    """Simulated time charged per concrete NFS operation."""

    per_op: float = 0.0          # CPU + protocol handling
    per_read_byte: float = 0.0   # data path, reads
    per_write_byte: float = 0.0  # data path, writes
    per_meta_op: float = 0.0     # extra for namespace mutations
    sync_extra: float = 0.0      # extra per stable (synced) write/create

    MUTATING = frozenset({"write", "create", "mkdir", "symlink", "setattr",
                          "remove", "rmdir", "rename"})
    META = frozenset({"create", "mkdir", "symlink", "remove", "rmdir",
                      "rename"})

    def cost(self, proc: str, nbytes: int, stable_writes: bool) -> float:
        total = self.per_op
        if proc == "read":
            total += nbytes * self.per_read_byte
        elif proc in self.MUTATING:
            total += nbytes * self.per_write_byte
            if proc in self.META:
                total += self.per_meta_op
            if stable_writes:
                total += self.sync_extra
        return total


def check_text(*values: Any) -> None:
    """A name or a symlink target is a ``str``: any other value makes the
    request malformed (``TypeError``), refused before anything changes."""
    if not all(isinstance(value, str) for value in values):
        raise TypeError("a name or a symlink target is not a string")


def data_bytes(proc: str, args: tuple, reply: Any) -> int:
    """The bytes a procedure's cost is charged for: what a write stores
    and what a read returns (``reply`` leads with the data; NFS-std's
    server passes an empty one for a read that failed)."""
    if proc == "write":
        return len(args[2])
    if proc == "read" and reply:
        return len(reply[0])
    return 0


class Inode:
    """One file-system object (regular file, directory, or symlink)."""

    __slots__ = ("ino", "ftype", "mode", "uid", "gid", "data", "children",
                 "target", "atime", "mtime", "ctime", "nlink", "gen")

    def __init__(self, ino: int, ftype: FileType, mode: int, uid: int,
                 gid: int, now: int, gen: int):
        self.ino = ino
        self.ftype = ftype
        self.mode = mode
        self.uid = uid
        self.gid = gid
        # Immutable: every change stores a new value, so replicas handed
        # the same decoded bytes share them and never alias a buffer.
        self.data = b""
        self.children: "Dict[str, int]" = {}
        self.target = ""
        self.atime = now
        self.mtime = now
        self.ctime = now
        self.nlink = 2 if ftype == FileType.NFDIR else 1
        self.gen = gen

    @property
    def size(self) -> int:
        if self.ftype == FileType.NFREG:
            return len(self.data)
        if self.ftype == FileType.NFLNK:
            return len(self.target.encode("utf-8"))
        return 512  # directories report a nominal block


class MemoryFilesystem:
    """The server core.  Vendor subclasses set the class attributes below
    and implement the file-handle codec."""

    vendor = "generic"
    fsid = 0x1000
    name_max = 255
    time_granularity_us = 1          # timestamp rounding (1 = microseconds)
    stable_writes = True             # sync before replying (Linux does not)
    capacity_bytes = 1 << 40

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 profile: Optional[CostProfile] = None):
        self.clock = clock or (lambda: 0.0)
        self.profile = profile or CostProfile()
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 2
        self._bytes_stored = 0
        self.ops_served = 0
        root = Inode(2, FileType.NFDIR, 0o755, 0, 0, self._now(), gen=1)
        self._inodes[2] = root
        self._next_ino = 3

    # -- vendor hooks ---------------------------------------------------------

    def fh_encode(self, ino: int, gen: int) -> bytes:
        raise NotImplementedError

    def fh_decode(self, fh: bytes) -> Tuple[int, int]:
        raise NotImplementedError

    def readdir_order(self, entries: List[Tuple[str, int]],
                      directory: Inode) -> List[Tuple[str, int]]:
        """Vendor-specific on-disk directory order."""
        return entries

    # -- internals ---------------------------------------------------------------

    def _now(self) -> int:
        usec = int(self.clock() * 1_000_000)
        return usec - usec % self.time_granularity_us

    def _inode(self, fh: bytes) -> Inode:
        try:
            ino, gen = self.fh_decode(fh)
        except (struct.error, ValueError) as exc:
            raise NfsError(NfsStatus.NFSERR_STALE, f"bad handle: {exc}")
        inode = self._inodes.get(ino)
        if inode is None or inode.gen != gen:
            raise NfsError(NfsStatus.NFSERR_STALE, f"ino {ino}")
        return inode

    def _dir(self, fh: bytes) -> Inode:
        inode = self._inode(fh)
        if inode.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        return inode

    def _check_name(self, name: str) -> None:
        check_text(name)
        if not name or name in (".", ".."):
            raise NfsError(NfsStatus.NFSERR_PERM, f"bad name {name!r}")
        if len(name.encode("utf-8")) > self.name_max:
            raise NfsError(NfsStatus.NFSERR_NAMETOOLONG, name)
        if "/" in name or "\x00" in name:
            raise NfsError(NfsStatus.NFSERR_PERM, f"bad name {name!r}")

    def _check_capacity(self, extra: int) -> None:
        if self._bytes_stored + extra > self.capacity_bytes:
            raise NfsError(NfsStatus.NFSERR_NOSPC)

    def _alloc(self, ftype: FileType, mode: int, uid: int, gid: int) -> Inode:
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino, ftype, mode, uid, gid, self._now(),
                      gen=self._generation(ino))
        self._inodes[ino] = inode
        return inode

    def _generation(self, ino: int) -> int:
        """Vendor hook: generation number for a newly allocated inode."""
        return 1

    def fattr_of(self, inode: Inode) -> Fattr:
        return Fattr(inode.ftype, inode.mode, inode.nlink, inode.uid,
                     inode.gid, inode.size, self.fsid, inode.ino,
                     inode.atime, inode.mtime, inode.ctime)

    def handle_of(self, inode: Inode) -> bytes:
        return self.fh_encode(inode.ino, inode.gen)

    # -- NFS procedures -------------------------------------------------------------

    def mount(self) -> bytes:
        """MNT: the root file handle."""
        self.ops_served += 1
        return self.handle_of(self._inodes[2])

    def getattr(self, fh: bytes) -> Fattr:
        self.ops_served += 1
        return self.fattr_of(self._inode(fh))

    def setattr(self, fh: bytes, sattr: Sattr) -> Fattr:
        self.ops_served += 1
        if not sattr.in_range():
            raise NfsError(NfsStatus.NFSERR_IO, "sattr field out of range")
        inode = self._inode(fh)
        if sattr.mode != -1:
            inode.mode = sattr.mode
        if sattr.uid != -1:
            inode.uid = sattr.uid
        if sattr.gid != -1:
            inode.gid = sattr.gid
        if sattr.size != -1:
            if inode.ftype != FileType.NFREG:
                raise NfsError(NfsStatus.NFSERR_ISDIR)
            old = len(inode.data)
            if sattr.size > old:
                self._check_capacity(sattr.size - old)
                inode.data += b"\x00" * (sattr.size - old)
            else:
                inode.data = inode.data[:sattr.size]
            self._bytes_stored += len(inode.data) - old
        if sattr.atime != -1:
            inode.atime = sattr.atime
        if sattr.mtime != -1:
            inode.mtime = sattr.mtime
        inode.ctime = self._now()
        return self.fattr_of(inode)

    def lookup(self, dir_fh: bytes, name: str) -> Tuple[bytes, Fattr]:
        self.ops_served += 1
        directory = self._dir(dir_fh)
        ino = directory.children.get(name)
        if ino is None:
            raise NfsError(NfsStatus.NFSERR_NOENT, name)
        child = self._inodes[ino]
        return self.handle_of(child), self.fattr_of(child)

    def readlink(self, fh: bytes) -> str:
        self.ops_served += 1
        inode = self._inode(fh)
        if inode.ftype != FileType.NFLNK:
            raise NfsError(NfsStatus.NFSERR_PERM, "not a symlink")
        return inode.target

    def read(self, fh: bytes, offset: int, count: int) -> Tuple[bytes, Fattr]:
        self.ops_served += 1
        if offset < 0 or count < 0:
            raise NfsError(NfsStatus.NFSERR_IO, "negative offset or count")
        inode = self._inode(fh)
        if inode.ftype == FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_ISDIR)
        return inode.data[offset:offset + count], self.fattr_of(inode)

    def write(self, fh: bytes, offset: int, data: bytes) -> Fattr:
        self.ops_served += 1
        if offset < 0:
            raise NfsError(NfsStatus.NFSERR_IO, "negative offset")
        inode = self._inode(fh)
        if inode.ftype != FileType.NFREG:
            raise NfsError(NfsStatus.NFSERR_ISDIR)
        old = inode.data
        end = offset + len(data)
        grow = max(0, end - len(old))
        self._check_capacity(grow)
        if offset == 0 and end >= len(old):
            # The whole file: keep the caller's (immutable) value.
            inode.data = bytes(data)
        else:
            gap = b"\x00" * max(0, offset - len(old))
            inode.data = old[:offset] + gap + data + old[end:]
        self._bytes_stored += grow
        inode.mtime = self._now()
        inode.ctime = inode.mtime
        return self.fattr_of(inode)

    def create(self, dir_fh: bytes, name: str,
               sattr: Sattr) -> Tuple[bytes, Fattr]:
        return self._make(dir_fh, name, sattr, FileType.NFREG)

    def mkdir(self, dir_fh: bytes, name: str,
              sattr: Sattr) -> Tuple[bytes, Fattr]:
        return self._make(dir_fh, name, sattr, FileType.NFDIR)

    def symlink(self, dir_fh: bytes, name: str, target: str,
                sattr: Sattr) -> Tuple[bytes, Fattr]:
        check_text(target)
        fh, fattr = self._make(dir_fh, name, sattr, FileType.NFLNK)
        inode = self._inode(fh)
        inode.target = target
        self._bytes_stored += len(target.encode("utf-8"))
        return fh, self.fattr_of(inode)

    def _make(self, dir_fh: bytes, name: str, sattr: Sattr,
              ftype: FileType) -> Tuple[bytes, Fattr]:
        self.ops_served += 1
        if not sattr.in_range():
            raise NfsError(NfsStatus.NFSERR_IO, "sattr field out of range")
        directory = self._dir(dir_fh)
        self._check_name(name)
        if name in directory.children:
            raise NfsError(NfsStatus.NFSERR_EXIST, name)
        self._check_capacity(64)
        mode = sattr.mode if sattr.mode != -1 else \
            (0o755 if ftype == FileType.NFDIR else 0o644)
        inode = self._alloc(ftype, mode,
                            sattr.uid if sattr.uid != -1 else 0,
                            sattr.gid if sattr.gid != -1 else 0)
        if sattr.size > 0 and ftype == FileType.NFREG:
            inode.data = b"\x00" * sattr.size
            self._bytes_stored += sattr.size
        directory.children[name] = inode.ino
        if ftype == FileType.NFDIR:
            directory.nlink += 1
        directory.mtime = self._now()
        directory.ctime = directory.mtime
        self._bytes_stored += 64
        return self.handle_of(inode), self.fattr_of(inode)

    def remove(self, dir_fh: bytes, name: str) -> None:
        self.ops_served += 1
        directory = self._dir(dir_fh)
        ino = directory.children.get(name)
        if ino is None:
            raise NfsError(NfsStatus.NFSERR_NOENT, name)
        inode = self._inodes[ino]
        if inode.ftype == FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_ISDIR, name)
        del directory.children[name]
        self._drop(inode)
        directory.mtime = self._now()
        directory.ctime = directory.mtime

    def rmdir(self, dir_fh: bytes, name: str) -> None:
        self.ops_served += 1
        directory = self._dir(dir_fh)
        ino = directory.children.get(name)
        if ino is None:
            raise NfsError(NfsStatus.NFSERR_NOENT, name)
        inode = self._inodes[ino]
        if inode.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR, name)
        if inode.children:
            raise NfsError(NfsStatus.NFSERR_NOTEMPTY, name)
        del directory.children[name]
        directory.nlink -= 1
        self._drop(inode)
        directory.mtime = self._now()
        directory.ctime = directory.mtime

    def rename(self, from_dir_fh: bytes, from_name: str, to_dir_fh: bytes,
               to_name: str) -> None:
        check_text(from_name, to_name)
        self.ops_served += 1
        src = self._dir(from_dir_fh)
        dst = self._dir(to_dir_fh)
        self._check_name(to_name)
        ino = src.children.get(from_name)
        if ino is None:
            raise NfsError(NfsStatus.NFSERR_NOENT, from_name)
        moving = self._inodes[ino]
        existing_ino = dst.children.get(to_name)
        if existing_ino is not None and existing_ino != ino:
            existing = self._inodes[existing_ino]
            if existing.ftype == FileType.NFDIR:
                if existing.children:
                    raise NfsError(NfsStatus.NFSERR_NOTEMPTY, to_name)
                dst.nlink -= 1
            self._drop(existing)
        del src.children[from_name]
        dst.children[to_name] = ino
        if moving.ftype == FileType.NFDIR and src is not dst:
            src.nlink -= 1
            dst.nlink += 1
        now = self._now()
        src.mtime = src.ctime = now
        dst.mtime = dst.ctime = now
        moving.ctime = now

    def readdir(self, dir_fh: bytes) -> List[Tuple[str, int]]:
        """Full directory listing as (name, fileid) in vendor order."""
        self.ops_served += 1
        directory = self._dir(dir_fh)
        entries = list(directory.children.items())
        return self.readdir_order(entries, directory)

    def statfs(self, fh: bytes) -> StatfsResult:
        self.ops_served += 1
        self._inode(fh)
        bsize = 4096
        total = self.capacity_bytes // bsize
        used = self._bytes_stored // bsize
        free = max(0, total - used)
        return StatfsResult(8192, bsize, total, free, free)

    # -- bookkeeping -----------------------------------------------------------------

    def _drop(self, inode: Inode) -> None:
        self._bytes_stored -= inode.size if inode.ftype != FileType.NFDIR \
            else 0
        self._bytes_stored -= 64
        del self._inodes[inode.ino]

    def cost(self, proc: str, nbytes: int) -> float:
        return self.profile.cost(proc, nbytes, self.stable_writes)

    def server_restart(self) -> None:
        """Simulate the NFS server process restarting over the same disk.

        Most backends keep handles stable across restarts; vendor
        subclasses may invalidate them (the NFS spec allows handles to
        change when the server restarts — the paper's recovery machinery
        exists to cope with exactly that).
        """

    # -- test/experiment hooks ----------------------------------------------------------

    def inode_count(self) -> int:
        return len(self._inodes)

    def corrupt_file_data(self, path_ino: int, garbage: bytes) -> None:
        """Flip a file's bytes behind the server's back (fault injection)."""
        inode = self._inodes[path_ino]
        inode.data = bytes(garbage) + inode.data[len(garbage):]

    def find_ino(self, *path: str) -> int:
        """Resolve a path from the root to an ino (test helper)."""
        ino = 2
        for name in path:
            ino = self._inodes[ino].children[name]
        return ino
