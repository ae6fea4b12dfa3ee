"""The NFS conformance wrapper (paper §3.1.2–§3.1.4).

Implements the BASE upcalls around one off-the-shelf NFS backend:

- ``execute`` translates client oids to backend handles, forwards the
  request, and rewrites the reply into abstract terms (oids instead of
  handles, agreed timestamps instead of server clocks, lexicographic
  readdir, virtualized NFSERR_NOSPC/FBIG/NAMETOOLONG);
- ``get_obj`` is the abstraction function of Figure 4;
- ``put_objs`` delegates to the inverse conversion engine of Figure 5
  (:mod:`repro.nfs.conversion`);
- the kernel agrees on the clock through ``timestamps``;
- ``shutdown``/``restart`` persist/rebuild the conformance representation
  around proactive-recovery reboots, re-resolving file handles from
  ``<fsid, fileid>`` when the server restart invalidated them.

Dispatch, read-only gating, error enveloping, and shutdown/restart
persistence ride the service kernel (:mod:`repro.service.kernel`): the
ops below are registered declaratively with ``@op``, so a wire-legal
procedure outside the abstract specification (NULL, ROOT, WRITECACHE —
or garbage from a Byzantine client) misses the table and gets the
deterministic ``bad procedure`` reply instead of reaching ``getattr``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.base.nondet import TimestampAgreement
from repro.errors import EncodingError, StateTransferError
from repro.service.kernel import AbstractService, op
from repro.nfs.backends.core import MemoryFilesystem, data_bytes
from repro.nfs.conformance import ConformanceRep
from repro.nfs.protocol import (
    FileType,
    NfsError,
    NfsProc,
    NfsStatus,
    Sattr,
    StatfsResult,
)
from repro.nfs.spec import (
    OBJECT_BYTES,
    AbstractMeta,
    AbstractObject,
    AbstractSpecConfig,
    decode_object,
    encode_object,
    entry_bytes,
    oid_bytes,
    oid_parse,
)


#: Offsets, counts and sattr fields are unsigned XDR fields in the
#: abstract specification (``-1`` is sattr's "don't change").  A value
#: outside its field is a malformed request: refused before Python's
#: slices give a negative one a meaning, and before one too wide is
#: stored where the next ``get_obj`` cannot pack it.
_OUT_OF_RANGE = "value outside its unsigned XDR field"

# Seconds a proposed timestamp may sit from this replica's clock.
CLOCK_DELTA = 2.0

#: The error envelopes NFS-std's server answers with too.
BAD_PROCEDURE = (int(NfsStatus.NFSERR_IO), "bad procedure")
MALFORMED = (int(NfsStatus.NFSERR_IO), "malformed request")

#: The backend procedure that makes an object of each type.
_MAKERS = {FileType.NFREG: "create", FileType.NFDIR: "mkdir",
           FileType.NFLNK: "symlink"}


class NfsConformanceWrapper(AbstractService):
    """One replica's veneer over one backend NFS server."""

    def __init__(self, backend: MemoryFilesystem,
                 spec: Optional[AbstractSpecConfig] = None,
                 clock: Callable[[], float] = lambda: 0.0):
        super().__init__()
        self.backend = backend
        self.spec = spec or AbstractSpecConfig()
        self.timestamps = TimestampAgreement(clock, delta=CLOCK_DELTA)
        self.rep = ConformanceRep(self.spec.array_size)
        root_fh = backend.mount()
        self.rep.assign(0, FileType.NFDIR, root_fh,
                        backend.getattr(root_fh).fileid, 0, 0, OBJECT_BYTES)

    # -- Upcalls: sizing --------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return self.spec.array_size

    # -- cost plumbing ----------------------------------------------------------------

    def _backend_op(self, proc: str, *args) -> Any:
        """Call the backend's ``proc``, then charge what it cost."""
        reply = getattr(self.backend, proc)(*args)
        self._charge_backend(proc, data_bytes(proc, args, reply))
        return reply

    def _charge_backend(self, proc: str, nbytes: int) -> None:
        if self.library is not None:
            self.library.charge(self.backend.cost(proc, nbytes))

    # -- kernel hooks: envelopes -------------------------------------------------------

    def ok_reply(self, payload: tuple) -> tuple:
        return (0,) + payload

    def unknown_op_reply(self, kind: Any) -> tuple:
        return BAD_PROCEDURE

    def read_only_reply(self, kind: Any) -> tuple:
        return (int(NfsStatus.NFSERR_ROFS),
                "mutating op on read-only path")

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        return BAD_PROCEDURE if kind is None else MALFORMED

    def service_error_reply(self, exc: Exception) -> Optional[tuple]:
        if isinstance(exc, NfsError):
            return (int(exc.status),)
        return None

    # -- oid/attr helpers ---------------------------------------------------------------------

    def _entry_for(self, fh: bytes):
        try:
            index, gen = oid_parse(fh)
        except EncodingError:
            # A handle of the wrong size names no file: stale, as every
            # vendor answers for a handle it cannot resolve.
            raise NfsError(NfsStatus.NFSERR_STALE) from None
        return index, self.rep.lookup_oid(index, gen)

    def _directory_for(self, fh: bytes):
        index, entry = self._entry_for(fh)
        if entry.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        return index, entry

    def _child_index(self, dir_fh: bytes, name: str) -> int:
        """The abstract index of ``name`` in the backend directory
        ``dir_fh``; STALE when its fileid maps to no entry."""
        _, fattr = self._backend_op("lookup", dir_fh, name)
        index = self.rep.fileid_to_index.get(fattr.fileid)
        if index is None:
            raise NfsError(NfsStatus.NFSERR_STALE,
                           f"unmapped fileid {fattr.fileid}")
        return index

    def _backend_fh(self, index: int) -> bytes:
        entry = self.rep.entry(index)
        if entry.fh is None:
            self._resolve_fh(index, set())
            entry = self.rep.entry(index)
            if entry.fh is None:
                raise NfsError(NfsStatus.NFSERR_STALE,
                               f"cannot resolve handle for index {index}")
        return entry.fh

    def _abstract_fattr(self, index: int) -> tuple:
        """The abstract attributes of ``index`` as they travel: the
        tuple ``Fattr.encode`` gives (fsid 0, fileid the index, rdev 0)."""
        entry = self.rep.entry(index)
        concrete = self._backend_op("getattr", self._backend_fh(index))
        return (int(entry.ftype), concrete.mode, concrete.nlink,
                concrete.uid, concrete.gid, concrete.size, 0, index,
                entry.atime, entry.mtime, entry.ctime, 0)

    def _oid(self, index: int) -> bytes:
        return oid_bytes(index, self.rep.generations[index])

    # -- operations --------------------------------------------------------------------------------

    @op(read_only=True)
    def _op_getattr(self, now: int, fh: bytes) -> tuple:
        index, _ = self._entry_for(fh)
        return (self._abstract_fattr(index),)

    @op()
    def _op_setattr(self, now: int, fh: bytes, sattr_fields: tuple) -> tuple:
        index, entry = self._entry_for(fh)
        sattr = Sattr.decode(sattr_fields)
        if not sattr.in_range():
            raise ValueError(_OUT_OF_RANGE)
        if sattr.size != -1:
            if entry.ftype != FileType.NFREG:
                raise NfsError(NfsStatus.NFSERR_ISDIR)
            if sattr.size > self.spec.max_file_size:
                raise NfsError(NfsStatus.NFSERR_FBIG)
            self._check_virtual_capacity(OBJECT_BYTES + sattr.size -
                                         entry.abstract_size)
        self._modify(index)
        # Strip client-supplied times; abstract times are the agreed ones.
        concrete = Sattr(sattr.mode, sattr.uid, sattr.gid, sattr.size, -1, -1)
        self._backend_op("setattr", self._backend_fh(index), concrete)
        if sattr.size != -1:
            self.rep.update_size(index, OBJECT_BYTES + sattr.size)
        entry.ctime = now
        if sattr.atime != -1:
            entry.atime = sattr.atime
        if sattr.mtime != -1:
            entry.mtime = sattr.mtime
        if sattr.size != -1:
            entry.mtime = now
        return (self._abstract_fattr(index),)

    @op(read_only=True)
    def _op_lookup(self, now: int, dir_fh: bytes, name: str) -> tuple:
        dir_index, _ = self._directory_for(dir_fh)
        child_index = self._child_index(self._backend_fh(dir_index), name)
        return (self._oid(child_index),
                self._abstract_fattr(child_index))

    @op(read_only=True)
    def _op_readlink(self, now: int, fh: bytes) -> tuple:
        index, entry = self._entry_for(fh)
        if entry.ftype != FileType.NFLNK:
            raise NfsError(NfsStatus.NFSERR_PERM, "not a symlink")
        return (self._backend_op("readlink", self._backend_fh(index)),)

    @op(read_only=True)
    def _op_read(self, now: int, fh: bytes, offset: int, count: int) -> tuple:
        if offset < 0 or count < 0:
            raise ValueError(_OUT_OF_RANGE)
        index, entry = self._entry_for(fh)
        data, _ = self._backend_op("read", self._backend_fh(index), offset,
                                   count)
        # Abstract spec: reads do not update atime (keeps reads read-only).
        return (data, self._abstract_fattr(index))

    @op()
    def _op_write(self, now: int, fh: bytes, offset: int,
                  data: bytes) -> tuple:
        if offset < 0:
            raise ValueError(_OUT_OF_RANGE)
        index, entry = self._entry_for(fh)
        if entry.ftype != FileType.NFREG:
            raise NfsError(NfsStatus.NFSERR_ISDIR)
        end = offset + len(data)
        if end > self.spec.max_file_size:
            raise NfsError(NfsStatus.NFSERR_FBIG)
        current_size = entry.abstract_size - OBJECT_BYTES
        growth = max(0, end - current_size)
        self._check_virtual_capacity(growth)
        self._modify(index)
        self._backend_op("write", self._backend_fh(index), offset, data)
        self.rep.update_size(index, OBJECT_BYTES + max(current_size, end))
        entry.mtime = entry.ctime = now
        return (self._abstract_fattr(index),)

    @op()
    def _op_create(self, now: int, dir_fh: bytes, name: str,
                   sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFREG, "")

    @op()
    def _op_mkdir(self, now: int, dir_fh: bytes, name: str,
                  sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFDIR, "")

    @op()
    def _op_symlink(self, now: int, dir_fh: bytes, name: str, target: str,
                    sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFLNK, target)

    def _create_common(self, now: int, dir_fh: bytes, name: str,
                       sattr_fields: tuple, ftype: FileType,
                       target: str) -> tuple:
        dir_index, dir_entry = self._directory_for(dir_fh)
        if len(name.encode("utf-8")) > self.spec.max_name_len:
            raise NfsError(NfsStatus.NFSERR_NAMETOOLONG, name)
        sattr = Sattr.decode(sattr_fields)
        if not sattr.in_range():
            raise ValueError(_OUT_OF_RANGE)
        initial_size = max(0, sattr.size) if ftype == FileType.NFREG else 0
        if initial_size > self.spec.max_file_size:
            raise NfsError(NfsStatus.NFSERR_FBIG)
        abstract_size = OBJECT_BYTES + initial_size + \
            len(target.encode("utf-8"))
        self._check_virtual_capacity(abstract_size + entry_bytes(name))
        # Claim the abstract entry first; modify() must see pre-mutation
        # values (free object, old generation) for copy-on-write to serve
        # earlier checkpoints correctly.
        with self.rep.claim() as index:
            self._modify(dir_index)
            self._modify(index)
            concrete = Sattr(sattr.mode, sattr.uid, sattr.gid,
                             sattr.size if ftype == FileType.NFREG else -1,
                             -1, -1)
            fh, fattr = self._make_object(ftype, self._backend_fh(dir_index),
                                          name, target, concrete)
            self.rep.assign(index, ftype, fh, fattr.fileid, dir_index, now,
                            abstract_size)
        dir_entry.mtime = dir_entry.ctime = now
        self.rep.update_size(dir_index, dir_entry.abstract_size +
                             entry_bytes(name))
        return (self._oid(index), self._abstract_fattr(index))

    def _make_object(self, ftype: FileType, dir_fh: bytes, name: str,
                     target: str, sattr: Sattr) -> Tuple[bytes, Any]:
        """Make ``name``, of type ``ftype``, in the backend directory
        ``dir_fh``: for a client's request and for a state transfer."""
        args = (target, sattr) if ftype == FileType.NFLNK else (sattr,)
        return self._backend_op(_MAKERS[ftype], dir_fh, name, *args)

    @op()
    def _op_remove(self, now: int, dir_fh: bytes, name: str) -> tuple:
        return self._remove_common(now, dir_fh, name, "remove")

    @op()
    def _op_rmdir(self, now: int, dir_fh: bytes, name: str) -> tuple:
        return self._remove_common(now, dir_fh, name, "rmdir")

    def _remove_common(self, now: int, dir_fh: bytes, name: str,
                       proc: str) -> tuple:
        dir_index, dir_entry = self._directory_for(dir_fh)
        backend_dir_fh = self._backend_fh(dir_index)
        victim_index = self._child_index(backend_dir_fh, name)
        self._modify(dir_index)
        self._modify(victim_index)
        self._backend_op(proc, backend_dir_fh, name)
        self.rep.free(victim_index)
        dir_entry.mtime = dir_entry.ctime = now
        self.rep.update_size(dir_index, dir_entry.abstract_size -
                             entry_bytes(name))
        return ()

    @op()
    def _op_rename(self, now: int, from_fh: bytes, from_name: str,
                   to_fh: bytes, to_name: str) -> tuple:
        from_index, from_entry = self._entry_for(from_fh)
        to_index, to_entry = self._entry_for(to_fh)
        if (from_entry.ftype != FileType.NFDIR
                or to_entry.ftype != FileType.NFDIR):
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        if len(to_name.encode("utf-8")) > self.spec.max_name_len:
            raise NfsError(NfsStatus.NFSERR_NAMETOOLONG, to_name)
        backend_from = self._backend_fh(from_index)
        backend_to = self._backend_fh(to_index)
        moving_index = self._child_index(backend_from, from_name)
        # A directory moved into its own subtree would leave the tree: its
        # parent chain would become a loop no state transfer can rebuild.
        ancestor, seen = to_index, set()
        while ancestor not in seen:
            if ancestor == moving_index:
                raise NfsError(NfsStatus.NFSERR_INVAL, "into its own subtree")
            seen.add(ancestor)
            ancestor = self.rep.entry(ancestor).parent
        # If the target name exists, its object is destroyed.
        replaced_index = None
        try:
            replaced_index = self._child_index(backend_to, to_name)
        except NfsError:
            pass
        self._modify(from_index)
        self._modify(to_index)
        self._modify(moving_index)
        if replaced_index is not None and replaced_index != moving_index:
            self._modify(replaced_index)
        self._backend_op("rename", backend_from, from_name, backend_to,
                         to_name)
        if replaced_index is not None and replaced_index != moving_index:
            self.rep.free(replaced_index)
        moving = self.rep.entry(moving_index)
        moving.parent = to_index
        moving.ctime = now
        from_entry.mtime = from_entry.ctime = now
        to_entry.mtime = to_entry.ctime = now
        self.rep.update_size(from_index, from_entry.abstract_size -
                             entry_bytes(from_name))
        self.rep.update_size(to_index, to_entry.abstract_size +
                             entry_bytes(to_name))
        return ()

    @op()
    def _op_link(self, now: int, *args) -> tuple:
        # Outside the common abstract specification (single parent index).
        raise NfsError(NfsStatus.NFSERR_PERM, "LINK unsupported by spec")

    @op(read_only=True)
    def _op_readdir(self, now: int, dir_fh: bytes) -> tuple:
        dir_index, _ = self._directory_for(dir_fh)
        raw = self._backend_op("readdir", self._backend_fh(dir_index))
        entries = []
        for name, fileid in raw:
            child = self.rep.fileid_to_index.get(fileid)
            if child is None:
                raise NfsError(NfsStatus.NFSERR_IO,
                               f"unmapped fileid {fileid}")
            entries.append((name, self._oid(child)))
        entries.sort(key=lambda pair: pair[0])  # lexicographic, per spec
        return (tuple(entries),)

    @op(read_only=True)
    def _op_statfs(self, now: int, fh: bytes) -> tuple:
        self._entry_for(fh)
        self._charge_backend("statfs", 0)
        bsize = 4096
        total = self.spec.capacity_bytes // bsize
        used = self.rep.bytes_used // bsize
        free = max(0, total - used)
        return (StatfsResult(8192, bsize, total, free, free).encode(),)

    def _check_virtual_capacity(self, extra: int) -> None:
        if extra > 0 and self.rep.bytes_used + extra > self.spec.capacity_bytes:
            raise NfsError(NfsStatus.NFSERR_NOSPC)

    # -- abstraction function (get_obj) ------------------------------------------------------

    def get_obj(self, index: int) -> bytes:
        entry = self.rep.entry(index)
        gen = self.rep.generations[index]
        if entry.is_free:
            return encode_object(AbstractObject(FileType.NFNON, gen))
        try:
            fh = self._backend_fh(index)
        except NfsError:
            if entry.fh is None:
                # After a clean-recovery restart the object does not exist
                # in the fresh backend yet.  Return a marker that can never
                # match a real object's digest, so the check fetches it.
                return b""
            raise
        concrete = self._backend_op("getattr", fh)
        meta = AbstractMeta(concrete.mode, concrete.uid, concrete.gid,
                            entry.atime, entry.mtime, entry.ctime,
                            entry.parent)
        if entry.ftype == FileType.NFREG:
            data, _ = self._backend_op("read", fh, 0, concrete.size)
            obj = AbstractObject(FileType.NFREG, gen, meta, data=data)
        elif entry.ftype == FileType.NFDIR:
            raw = self._backend_op("readdir", fh)
            entries = []
            for name, fileid in raw:
                child = self.rep.fileid_to_index.get(fileid)
                if child is None:
                    raise StateTransferError(
                        f"{self.backend.vendor}: fileid {fileid} unmapped "
                        f"while abstracting directory {index}")
                entries.append((name, child, self.rep.generations[child]))
            entries.sort(key=lambda e: e[0])
            obj = AbstractObject(FileType.NFDIR, gen, meta,
                                 entries=tuple(entries))
        else:
            target = self._backend_op("readlink", fh)
            obj = AbstractObject(FileType.NFLNK, gen, meta, target=target)
        return encode_object(obj)

    # -- inverse abstraction function (put_objs) ------------------------------------------------

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        from repro.nfs.conversion import InverseConversion
        decoded = {index: decode_object(blob)
                   for index, blob in objects.items()}
        InverseConversion(self, decoded).run()

    # -- proactive recovery (shutdown / restart) ----------------------------------------------------

    def save_rep(self) -> tuple:
        return self.rep.save()

    def load_rep(self, saved: tuple) -> None:
        """Reload the representation and re-mount; handles are re-resolved
        lazily from <fsid,fileid> since the server restart may have
        invalidated them."""
        backend = self.fresh_backend()
        if backend is not None:
            # Start over on an empty file system; every object's value
            # comes back through put_objs during fetch-and-check.
            self.backend = backend
        else:
            rejuvenate = getattr(self.backend, "rejuvenate", None)
            if rejuvenate is not None:
                rejuvenate()
            self.backend.server_restart()
        self.rep = ConformanceRep.load(self.spec.array_size, saved)
        # Fresh mount: the root handle is known; everything else is None
        # until resolved by walking down from a known ancestor.
        root_fh = self.backend.mount()
        self.rep.remount(root_fh, self.backend.getattr(root_fh).fileid)

    def _resolve_fh(self, index: int, visited: set) -> None:
        """Recover the backend handle for ``index`` after a restart: walk
        up the parent chain (with loop detection against corrupted saved
        state) to a directory whose handle is known, then walk back down
        issuing readdir+lookup, filling in handles for all siblings seen
        along the way (paper §3.1.4)."""
        entry = self.rep.entry(index)
        if entry.fh is not None or entry.is_free:
            return
        if index in visited:
            raise StateTransferError(
                f"parent-chain loop at index {index} during fh recovery")
        visited.add(index)
        parent = entry.parent
        if self.rep.entry(parent).fh is None:
            self._resolve_fh(parent, visited)
        parent_fh = self.rep.entry(parent).fh
        if parent_fh is None:
            return
        for name, fileid in self.backend.readdir(parent_fh):
            self._charge_backend("readdir", 0)
            sibling = self.rep.fileid_to_index.get(fileid)
            if sibling is None:
                continue
            if self.rep.entry(sibling).fh is None:
                fh, _ = self._backend_op("lookup", parent_fh, name)
                self.rep.set_fh(sibling, fh)

# Every registered handler implements a procedure of the protocol; the
# table's read-only flags are the BFT read-only gate, for the clients too.
assert frozenset(NfsConformanceWrapper.OPS) <= \
    frozenset(proc.value for proc in NfsProc)
