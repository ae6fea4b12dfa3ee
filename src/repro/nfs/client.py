"""Simulated kernel NFS client.

Mimics the behaviour of the in-kernel NFSv2 client the paper's benchmark
machine used (Linux, UDP, 4 KB transfers, attribute caching, close-to-
open-style data caching):

- **attribute cache** — getattr results cached with a TTL, so repeated
  stats of the same object do not hit the wire;
- **lookup (dnlc) cache** — name → handle translations cached;
- **data cache** — whole-file contents cached per handle, revalidated by
  comparing the server's mtime (this is the cache the paper's faulty-
  primary timestamp discussion is about: a frozen mtime would make
  clients wrongly keep stale data);
- 4 KB read/write transfer size.

The client is transport-agnostic: the same code drives BASEFS and the
unreplicated NFS-std baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.nfs.protocol import Fattr, FileType, NfsError, NfsProc, NfsStatus
from repro.nfs.service import BaseFsTransport

TRANSFER_SIZE = 4096


class NfsClient:
    """Path-level API over a :class:`BaseFsTransport`."""

    def __init__(self, transport: BaseFsTransport, attr_ttl: float = 3.0,
                 use_caches: bool = True):
        self.transport = transport
        self.attr_ttl = attr_ttl
        self.use_caches = use_caches
        self.root = transport.root_fh()
        self._attr_cache: Dict[bytes, Tuple[Fattr, float]] = {}
        self._lookup_cache: Dict[Tuple[bytes, str], Tuple[bytes, float]] = {}
        self._data_cache: Dict[bytes, Tuple[bytes, int]] = {}  # fh->(data,mtime)
        self.calls_issued = 0
        self.cache_hits = 0

    # -- cache plumbing -----------------------------------------------------------

    def _call(self, proc: NfsProc, *args, read_only: bool = False) -> tuple:
        self.calls_issued += 1
        return self.transport.call(proc, *args, read_only=read_only)

    def _cache_attr(self, fh: bytes, fattr: Fattr) -> None:
        if self.use_caches:
            self._attr_cache[fh] = (fattr, self.transport.now + self.attr_ttl)

    def _cached_attr(self, fh: bytes) -> Optional[Fattr]:
        if not self.use_caches:
            return None
        hit = self._attr_cache.get(fh)
        if hit and hit[1] >= self.transport.now:
            self.cache_hits += 1
            return hit[0]
        return None

    def _invalidate(self, fh: bytes) -> None:
        self._attr_cache.pop(fh, None)
        self._data_cache.pop(fh, None)

    # -- path resolution --------------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [p for p in path.split("/") if p]
        return parts

    def _resolve(self, path: str) -> bytes:
        fh = self.root
        for name in self._split(path):
            fh = self._lookup(fh, name)
        return fh

    def _resolve_parent(self, path: str) -> Tuple[bytes, str]:
        parts = self._split(path)
        if not parts:
            raise NfsError(NfsStatus.NFSERR_PERM, "root has no parent")
        fh = self.root
        for name in parts[:-1]:
            fh = self._lookup(fh, name)
        return fh, parts[-1]

    def _lookup(self, dir_fh: bytes, name: str) -> bytes:
        key = (dir_fh, name)
        if self.use_caches:
            hit = self._lookup_cache.get(key)
            if hit and hit[1] >= self.transport.now:
                self.cache_hits += 1
                return hit[0]
        fh, attr_fields = self._call(NfsProc.LOOKUP, dir_fh, name,
                                     read_only=True)
        fattr = Fattr.decode(attr_fields)
        self._cache_attr(fh, fattr)
        if self.use_caches:
            self._lookup_cache[key] = (fh, self.transport.now + self.attr_ttl)
        return fh

    # -- public API ------------------------------------------------------------------------

    def getattr(self, path: str) -> Fattr:
        fh = self._resolve(path)
        cached = self._cached_attr(fh)
        if cached is not None:
            return cached
        fattr = Fattr.decode(self._call(NfsProc.GETATTR, fh,
                                        read_only=True)[0])
        self._cache_attr(fh, fattr)
        return fattr

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        dir_fh, name = self._resolve_parent(path)
        sattr = (mode, 0, 0, -1, -1, -1)
        fh, attr_fields = self._call(NfsProc.MKDIR, dir_fh, name, sattr)
        self._cache_attr(fh, Fattr.decode(attr_fields))
        self._invalidate(dir_fh)

    def create(self, path: str, mode: int = 0o644) -> bytes:
        dir_fh, name = self._resolve_parent(path)
        sattr = (mode, 0, 0, 0, -1, -1)
        fh, attr_fields = self._call(NfsProc.CREATE, dir_fh, name, sattr)
        self._cache_attr(fh, Fattr.decode(attr_fields))
        self._invalidate(dir_fh)
        if self.use_caches:
            self._lookup_cache[(dir_fh, name)] = (
                fh, self.transport.now + self.attr_ttl)
        return fh

    def write_file(self, path: str, data: bytes,
                   create: bool = True) -> None:
        """Create/overwrite a file, writing in 4 KB transfers."""
        try:
            fh = self._resolve(path)
        except NfsError as err:
            if err.status != NfsStatus.NFSERR_NOENT or not create:
                raise
            fh = self.create(path)
        for offset in range(0, max(len(data), 1), TRANSFER_SIZE):
            chunk = data[offset:offset + TRANSFER_SIZE]
            attr_fields = self._call(NfsProc.WRITE, fh, offset, chunk)[0]
            self._cache_attr(fh, Fattr.decode(attr_fields))
        self._data_cache.pop(fh, None)

    def read_file(self, path: str) -> bytes:
        """Read a whole file, 4 KB at a time, honouring the data cache
        (revalidated by mtime, as real NFS clients do)."""
        fh = self._resolve(path)
        fattr = self._cached_attr(fh)
        if fattr is None:
            fattr = Fattr.decode(self._call(NfsProc.GETATTR, fh,
                                            read_only=True)[0])
            self._cache_attr(fh, fattr)
        if self.use_caches:
            cached = self._data_cache.get(fh)
            if cached is not None and cached[1] == fattr.mtime:
                self.cache_hits += 1
                return cached[0]
        chunks = []
        offset = 0
        while offset < fattr.size:
            data, attr_fields = self._call(NfsProc.READ, fh, offset,
                                           TRANSFER_SIZE, read_only=True)
            if not data:
                break
            chunks.append(data)
            offset += len(data)
        data = b"".join(chunks)
        if self.use_caches:
            self._data_cache[fh] = (data, fattr.mtime)
        return data

    def listdir(self, path: str) -> List[str]:
        fh = self._resolve(path)
        entries = self._call(NfsProc.READDIR, fh, read_only=True)[0]
        return [name for name, _ in entries]

    def symlink(self, path: str, target: str) -> None:
        dir_fh, name = self._resolve_parent(path)
        sattr = (0o777, 0, 0, -1, -1, -1)
        self._call(NfsProc.SYMLINK, dir_fh, name, target, sattr)
        self._invalidate(dir_fh)

    def readlink(self, path: str) -> str:
        fh = self._resolve(path)
        return self._call(NfsProc.READLINK, fh, read_only=True)[0]

    def remove(self, path: str) -> None:
        dir_fh, name = self._resolve_parent(path)
        self._call(NfsProc.REMOVE, dir_fh, name)
        self._lookup_cache.pop((dir_fh, name), None)
        self._invalidate(dir_fh)

    def rmdir(self, path: str) -> None:
        dir_fh, name = self._resolve_parent(path)
        self._call(NfsProc.RMDIR, dir_fh, name)
        self._lookup_cache.pop((dir_fh, name), None)
        self._invalidate(dir_fh)

    def rename(self, from_path: str, to_path: str) -> None:
        from_fh, from_name = self._resolve_parent(from_path)
        to_fh, to_name = self._resolve_parent(to_path)
        self._call(NfsProc.RENAME, from_fh, from_name, to_fh, to_name)
        self._lookup_cache.pop((from_fh, from_name), None)
        self._lookup_cache.pop((to_fh, to_name), None)
        self._invalidate(from_fh)
        self._invalidate(to_fh)

    def setattr(self, path: str, mode: int = -1, uid: int = -1,
                gid: int = -1, size: int = -1) -> Fattr:
        fh = self._resolve(path)
        attr_fields = self._call(NfsProc.SETATTR, fh,
                                 (mode, uid, gid, size, -1, -1))[0]
        fattr = Fattr.decode(attr_fields)
        self._cache_attr(fh, fattr)
        self._data_cache.pop(fh, None)
        return fattr

    def statfs(self) -> tuple:
        return self._call(NfsProc.STATFS, self.root, read_only=True)[0]

    def exists(self, path: str) -> bool:
        try:
            self.getattr(path)
            return True
        except NfsError as err:
            if err.status in (NfsStatus.NFSERR_NOENT, NfsStatus.NFSERR_STALE):
                return False
            raise

    def drop_caches(self) -> None:
        self._attr_cache.clear()
        self._lookup_cache.clear()
        self._data_cache.clear()
