"""The conformance representation (paper §3.1.2, Figure 4).

An array paralleling the abstract state.  It stores *no object data* —
only what is needed to translate between the concrete NFS server and the
abstract specification: per entry the object type, generation number, the
backend file handle, the backend fileid, the abstract timestamps, the
parent index, and the entry's contribution to the virtual capacity.
Reverse maps from backend file handles and fileids to oids make reply
processing and recovery efficient.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.nfs.protocol import FileType, NfsError, NfsStatus


class ConformanceEntry:
    __slots__ = ("ftype", "gen", "fh", "fileid", "parent",
                 "atime", "mtime", "ctime", "abstract_size")

    def __init__(self) -> None:
        self.ftype: Optional[FileType] = None  # None = free entry
        self.gen = 0
        self.fh: Optional[bytes] = None
        self.fileid: Optional[int] = None
        self.parent = 0
        self.atime = 0
        self.mtime = 0
        self.ctime = 0
        self.abstract_size = 0

    @property
    def is_free(self) -> bool:
        return self.ftype is None


class ConformanceRep:
    """The array plus its reverse maps and free-entry allocator."""

    def __init__(self, size: int):
        self.size = size
        self.entries: List[ConformanceEntry] = [ConformanceEntry()
                                                for _ in range(size)]
        self.fh_to_index: Dict[bytes, int] = {}
        self.fileid_to_index: Dict[int, int] = {}
        self._free_heap = list(range(1, size))  # 0 is the root, never free
        heapq.heapify(self._free_heap)
        self.bytes_used = 0

    def entry(self, index: int) -> ConformanceEntry:
        return self.entries[index]

    def lookup_oid(self, index: int, gen: int) -> ConformanceEntry:
        """Resolve a client oid, with stale-handle semantics."""
        if not 0 <= index < self.size:
            raise NfsError(NfsStatus.NFSERR_STALE, f"index {index}")
        entry = self.entries[index]
        if entry.is_free or entry.gen != gen:
            raise NfsError(NfsStatus.NFSERR_STALE,
                           f"index {index} gen {gen} != {entry.gen}")
        return entry

    def allocate(self) -> int:
        """Deterministic allocation: the lowest free index.

        The generation bumps at :meth:`assign` (after the caller's
        ``modify`` upcall has preserved the free entry's pre-image)."""
        while self._free_heap:
            index = heapq.heappop(self._free_heap)
            if self.entries[index].is_free:
                return index
        raise NfsError(NfsStatus.NFSERR_NOSPC, "abstract array exhausted")

    def release_unassigned(self, index: int) -> None:
        """Return an allocated-but-never-assigned index to the free pool."""
        if self.entries[index].is_free:
            heapq.heappush(self._free_heap, index)

    def assign(self, index: int, ftype: FileType, fh: bytes, fileid: int,
               parent: int, now: int, abstract_size: int) -> None:
        entry = self.entries[index]
        entry.gen += 1
        entry.ftype = ftype
        entry.fh = fh
        entry.fileid = fileid
        entry.parent = parent
        entry.atime = entry.mtime = entry.ctime = now
        self.bytes_used += abstract_size - entry.abstract_size
        entry.abstract_size = abstract_size
        self.fh_to_index[fh] = index
        self.fileid_to_index[fileid] = index

    def free(self, index: int) -> None:
        """Mark an entry free (the generation bumps on reassignment)."""
        entry = self.entries[index]
        if entry.is_free:
            return
        if entry.fh is not None:
            self.fh_to_index.pop(entry.fh, None)
        if entry.fileid is not None:
            self.fileid_to_index.pop(entry.fileid, None)
        self.bytes_used -= entry.abstract_size
        entry.ftype = None
        entry.fh = None
        entry.fileid = None
        entry.abstract_size = 0
        entry.parent = 0
        entry.atime = entry.mtime = entry.ctime = 0
        if index != 0:
            heapq.heappush(self._free_heap, index)

    def set_fh(self, index: int, fh: Optional[bytes]) -> None:
        entry = self.entries[index]
        if entry.fh is not None:
            self.fh_to_index.pop(entry.fh, None)
        entry.fh = fh
        if fh is not None:
            self.fh_to_index[fh] = index

    def update_size(self, index: int, abstract_size: int) -> None:
        entry = self.entries[index]
        self.bytes_used += abstract_size - entry.abstract_size
        entry.abstract_size = abstract_size
