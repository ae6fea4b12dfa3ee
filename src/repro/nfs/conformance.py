"""The conformance representation (paper §3.1.2, Figure 4).

An array paralleling the abstract state.  It stores *no object data* —
only what is needed to translate between the concrete NFS server and the
abstract specification: per entry the object type, the backend file
handle, the backend fileid, the abstract timestamps, the parent index,
and the entry's contribution to the virtual capacity.  Every free slot
points at one shared, read-only ``FREE`` entry; a slot gets its own
entry when ``assign``, ``bind`` or ``load`` makes it live.  Generations
and free entries live in the §6 mapping library's ``SlotAllocator``
(slot 0, the root, reserved; its watermark keeps the untouched tail off
the free heap).  A reverse map from backend fileids to oids makes reply
processing and recovery efficient; every backend reply carries the
fileid, so no handle→oid map is kept.  Only this module writes the map,
``bytes_used`` and an entry's handle, fileid and type.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.base.mappings import SlotAllocator
from repro.nfs.protocol import FileType, NfsError, NfsStatus


class ConformanceEntry:
    __slots__ = ("ftype", "fh", "fileid", "parent",
                 "atime", "mtime", "ctime", "abstract_size")

    def __init__(self) -> None:
        self.ftype: Optional[FileType] = None  # None = free entry
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


class _FreeEntry(ConformanceEntry):
    """Every free slot's entry: its fields are set once, at creation."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"wrote {name} of the shared free entry")
        super().__setattr__(name, value)


FREE: ConformanceEntry = _FreeEntry()


class ConformanceRep:
    """The array plus its reverse map and slot allocator."""

    def __init__(self, size: int):
        self.size = size
        self.entries: List[ConformanceEntry] = [FREE] * size
        self.fileid_to_index: Dict[int, int] = {}
        self.slots = SlotAllocator(size, reserved=1)
        #: The allocator's generation list (read it, never write it).
        self.generations = self.slots.generations
        self.bytes_used = 0

    def entry(self, index: int) -> ConformanceEntry:
        return self.entries[index]

    def lookup_oid(self, index: int, gen: int) -> ConformanceEntry:
        """Resolve a client oid, with stale-handle semantics."""
        if not 0 <= index < self.size:
            raise NfsError(NfsStatus.NFSERR_STALE, f"index {index}")
        entry = self.entries[index]
        if entry.is_free or self.generations[index] != gen:
            raise NfsError(NfsStatus.NFSERR_STALE,
                           f"index {index} gen {gen} != "
                           f"{self.generations[index]}")
        return entry

    # -- the wrapper's writes: allocate, then assign or roll back ---------------

    def allocate(self) -> int:
        """Deterministic allocation: the lowest free index.

        The generation bumps at :meth:`assign` (after the caller's
        ``modify`` upcall has preserved the free entry's pre-image)."""
        try:
            return self.slots.allocate()
        except IndexError:
            raise NfsError(NfsStatus.NFSERR_NOSPC,
                           "abstract array exhausted") from None

    def rollback(self, index: int) -> None:
        """Return an allocated-but-never-assigned index to the free pool."""
        self.slots.rollback(index)

    def assign(self, index: int, ftype: FileType, fh: bytes, fileid: int,
               parent: int, now: int, abstract_size: int) -> None:
        """Complete an allocation (the wrapper creates the root, slot 0,
        this way too, at generation 1)."""
        self.slots.commit(index)
        entry = self._link(index, ftype, fh, fileid, parent)
        entry.atime = entry.mtime = entry.ctime = now
        self.update_size(index, abstract_size)

    def _link(self, index: int, ftype: FileType, fh: bytes, fileid: int,
              parent: int) -> ConformanceEntry:
        entry = self.entries[index]
        if entry is FREE:
            entry = self.entries[index] = ConformanceEntry()
        entry.ftype = ftype
        entry.fh = fh
        entry.fileid = fileid
        entry.parent = parent
        self.fileid_to_index[fileid] = index
        return entry

    def free(self, index: int, gen: Optional[int] = None) -> None:
        """Mark an entry free.  State transfer passes the free object's
        generation; otherwise it bumps on reassignment."""
        entry = self.entries[index]
        if not entry.is_free:
            if entry.fileid is not None:
                self.fileid_to_index.pop(entry.fileid, None)
            self.update_size(index, 0)
            self.entries[index] = FREE
        self.slots.set_generation(
            index, self.generations[index] if gen is None else gen,
            used=False)

    def remount(self, fh: bytes, fileid: int) -> None:
        """After a server restart: the root's new handle and fileid
        (every other handle is re-resolved lazily)."""
        self.set_fh(0, fh)
        self.fileid_to_index[fileid] = 0
        self.entries[0].fileid = fileid

    def set_fh(self, index: int, fh: Optional[bytes]) -> None:
        self.entries[index].fh = fh

    def update_size(self, index: int, abstract_size: int) -> None:
        entry = self.entries[index]
        self.bytes_used += abstract_size - entry.abstract_size
        entry.abstract_size = abstract_size

    # -- the inverse conversion's writes ---------------------------------------------

    def bind(self, index: int, ftype: FileType, gen: int, fh: bytes,
             fileid: int, parent: int) -> None:
        """Make ``index`` the oid of a backend object state transfer
        just created, at the transferred generation."""
        old_fileid = self.entries[index].fileid
        if old_fileid is not None:
            self.fileid_to_index.pop(old_fileid, None)
        self.slots.set_generation(index, gen, used=True)
        self._link(index, ftype, fh, fileid, parent)

    def set_generation(self, index: int, gen: int) -> None:
        """A live entry takes its transferred object's generation."""
        self.slots.set_generation(index, gen, used=True)

    def forget_fileid(self, fileid: int) -> None:
        """The backend object with ``fileid`` is gone: unmap it and drop
        its handle.  The entry changes when its own object arrives."""
        mapped = self.fileid_to_index.get(fileid)
        if mapped is not None and self.entries[mapped].fileid == fileid:
            del self.fileid_to_index[fileid]
            stale = self.entries[mapped]
            stale.fh = stale.fileid = None

    # -- persistence (shutdown / restart) -----------------------------------------------

    def save(self) -> tuple:
        """The <fsid,fileid>→oid map and per-entry metadata, as written
        to 'disk' at shutdown (handles are not saved: a server restart
        may invalidate them)."""
        saved = []
        for index, entry in enumerate(self.entries):
            gen = self.generations[index]
            if entry.is_free:
                saved.append((index, None, gen, 0, 0, 0, 0, 0, 0))
            else:
                saved.append((index, int(entry.ftype), gen, entry.fileid,
                              entry.parent, entry.atime, entry.mtime,
                              entry.ctime, entry.abstract_size))
        return tuple(saved)

    @classmethod
    def load(cls, size: int, saved: tuple) -> "ConformanceRep":
        """Rebuild a rep from :meth:`save`; :meth:`remount` comes next."""
        rep = cls(size)
        for (index, ftype, gen, fileid, parent, atime, mtime, ctime,
             abstract_size) in saved:
            rep.slots.set_generation(index, gen, used=ftype is not None)
            if ftype is not None:
                entry = rep.entries[index] = ConformanceEntry()
                entry.ftype, entry.fileid = FileType(ftype), fileid
                entry.parent, entry.abstract_size = parent, abstract_size
                entry.atime, entry.mtime, entry.ctime = atime, mtime, ctime
                rep.bytes_used += abstract_size
                rep.fileid_to_index[fileid] = index
        return rep
