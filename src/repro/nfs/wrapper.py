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

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.base.nondet import TimestampAgreement
from repro.errors import EncodingError, StateTransferError
from repro.service.kernel import AbstractService, op
from repro.nfs.backends.core import MemoryFilesystem
from repro.nfs.conformance import ConformanceRep
from repro.nfs.protocol import (
    FileType,
    NfsError,
    NfsProc,
    NfsStatus,
    READ_ONLY_PROCS,
    Sattr,
    StatfsResult,
)
from repro.nfs.spec import (
    AbstractMeta,
    AbstractObject,
    AbstractSpecConfig,
    decode_object,
    encode_object,
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
                        backend.getattr(root_fh).fileid, 0, 0, 64)

    # -- Upcalls: sizing --------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return self.spec.array_size

    # -- cost plumbing ----------------------------------------------------------------

    def _charge_backend(self, proc: str, nbytes: int = 0) -> None:
        if self.library is not None:
            self.library.charge(self.backend.cost(proc, nbytes))

    # -- kernel hooks: envelopes -------------------------------------------------------

    def ok_reply(self, payload: tuple) -> tuple:
        return (0,) + payload

    def unknown_op_reply(self, kind: Any) -> tuple:
        return (int(NfsStatus.NFSERR_IO), "bad procedure")

    def read_only_reply(self, kind: Any) -> tuple:
        return (int(NfsStatus.NFSERR_ROFS),
                "mutating op on read-only path")

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        if kind is None or not isinstance(kind, str) \
                or self.op_key(kind) not in self.OPS:
            return self.unknown_op_reply(kind)
        return (int(NfsStatus.NFSERR_IO), "malformed request")

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
        concrete = self.backend.getattr(self._backend_fh(index))
        self._charge_backend("getattr")
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
            self._check_virtual_capacity(sattr.size + 64 -
                                         entry.abstract_size)
        self._modify(index)
        # Strip client-supplied times; abstract times are the agreed ones.
        concrete = Sattr(sattr.mode, sattr.uid, sattr.gid, sattr.size, -1, -1)
        self.backend.setattr(self._backend_fh(index), concrete)
        self._charge_backend("setattr")
        if sattr.size != -1:
            self.rep.update_size(index, sattr.size + 64)
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
        dir_index, dir_entry = self._entry_for(dir_fh)
        if dir_entry.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        _, fattr = self.backend.lookup(self._backend_fh(dir_index), name)
        self._charge_backend("lookup")
        child_index = self.rep.fileid_to_index.get(fattr.fileid)
        if child_index is None:
            raise NfsError(NfsStatus.NFSERR_STALE,
                           f"unmapped fileid {fattr.fileid}")
        return (self._oid(child_index),
                self._abstract_fattr(child_index))

    @op(read_only=True)
    def _op_readlink(self, now: int, fh: bytes) -> tuple:
        index, entry = self._entry_for(fh)
        if entry.ftype != FileType.NFLNK:
            raise NfsError(NfsStatus.NFSERR_PERM, "not a symlink")
        target = self.backend.readlink(self._backend_fh(index))
        self._charge_backend("readlink")
        return (target,)

    @op(read_only=True)
    def _op_read(self, now: int, fh: bytes, offset: int, count: int) -> tuple:
        if offset < 0 or count < 0:
            raise ValueError(_OUT_OF_RANGE)
        index, entry = self._entry_for(fh)
        data, _ = self.backend.read(self._backend_fh(index), offset, count)
        self._charge_backend("read", len(data))
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
        current_size = entry.abstract_size - 64
        growth = max(0, end - current_size)
        self._check_virtual_capacity(growth)
        self._modify(index)
        self.backend.write(self._backend_fh(index), offset, data)
        self._charge_backend("write", len(data))
        self.rep.update_size(index, max(current_size, end) + 64)
        entry.mtime = entry.ctime = now
        return (self._abstract_fattr(index),)

    @op()
    def _op_create(self, now: int, dir_fh: bytes, name: str,
                   sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFREG)

    @op()
    def _op_mkdir(self, now: int, dir_fh: bytes, name: str,
                  sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFDIR)

    @op()
    def _op_symlink(self, now: int, dir_fh: bytes, name: str, target: str,
                    sattr_fields: tuple) -> tuple:
        return self._create_common(now, dir_fh, name, sattr_fields,
                                   FileType.NFLNK, target=target)

    def _create_common(self, now: int, dir_fh: bytes, name: str,
                       sattr_fields: tuple, ftype: FileType,
                       target: str = "") -> tuple:
        dir_index, dir_entry = self._entry_for(dir_fh)
        if dir_entry.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        if len(name.encode("utf-8")) > self.spec.max_name_len:
            raise NfsError(NfsStatus.NFSERR_NAMETOOLONG, name)
        sattr = Sattr.decode(sattr_fields)
        if not sattr.in_range():
            raise ValueError(_OUT_OF_RANGE)
        initial_size = max(0, sattr.size) if ftype == FileType.NFREG else 0
        if initial_size > self.spec.max_file_size:
            raise NfsError(NfsStatus.NFSERR_FBIG)
        abstract_size = initial_size + 64 + len(target.encode("utf-8"))
        self._check_virtual_capacity(abstract_size +
                                     len(name.encode("utf-8")) + 16)
        # Claim the abstract entry first; modify() must see pre-mutation
        # values (free object, old generation) for copy-on-write to serve
        # earlier checkpoints correctly.
        with self.rep.claim() as index:
            self._modify(dir_index)
            self._modify(index)
            backend_dir_fh = self._backend_fh(dir_index)
            concrete = Sattr(sattr.mode, sattr.uid, sattr.gid,
                             sattr.size if ftype == FileType.NFREG else -1,
                             -1, -1)
            if ftype == FileType.NFREG:
                fh, fattr = self.backend.create(backend_dir_fh, name,
                                                concrete)
                self._charge_backend("create")
            elif ftype == FileType.NFDIR:
                fh, fattr = self.backend.mkdir(backend_dir_fh, name,
                                               concrete)
                self._charge_backend("mkdir")
            else:
                fh, fattr = self.backend.symlink(backend_dir_fh, name,
                                                 target, concrete)
                self._charge_backend("symlink")
            self.rep.assign(index, ftype, fh, fattr.fileid, dir_index, now,
                            abstract_size)
        dir_entry.mtime = dir_entry.ctime = now
        self.rep.update_size(dir_index, dir_entry.abstract_size +
                             len(name.encode("utf-8")) + 16)
        return (self._oid(index), self._abstract_fattr(index))

    @op()
    def _op_remove(self, now: int, dir_fh: bytes, name: str) -> tuple:
        return self._remove_common(now, dir_fh, name, directory=False)

    @op()
    def _op_rmdir(self, now: int, dir_fh: bytes, name: str) -> tuple:
        return self._remove_common(now, dir_fh, name, directory=True)

    def _remove_common(self, now: int, dir_fh: bytes, name: str,
                       directory: bool) -> tuple:
        dir_index, dir_entry = self._entry_for(dir_fh)
        if dir_entry.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        backend_dir_fh = self._backend_fh(dir_index)
        _, fattr = self.backend.lookup(backend_dir_fh, name)
        self._charge_backend("lookup")
        victim_index = self.rep.fileid_to_index.get(fattr.fileid)
        if victim_index is None:
            raise NfsError(NfsStatus.NFSERR_STALE)
        self._modify(dir_index)
        self._modify(victim_index)
        if directory:
            self.backend.rmdir(backend_dir_fh, name)
            self._charge_backend("rmdir")
        else:
            self.backend.remove(backend_dir_fh, name)
            self._charge_backend("remove")
        self.rep.free(victim_index)
        dir_entry.mtime = dir_entry.ctime = now
        self.rep.update_size(dir_index, dir_entry.abstract_size -
                             len(name.encode("utf-8")) - 16)
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
        _, moving_attr = self.backend.lookup(backend_from, from_name)
        self._charge_backend("lookup")
        moving_index = self.rep.fileid_to_index.get(moving_attr.fileid)
        if moving_index is None:
            raise NfsError(NfsStatus.NFSERR_STALE)
        # If the target name exists, its object is destroyed.
        replaced_index = None
        try:
            _, replaced_attr = self.backend.lookup(backend_to, to_name)
            self._charge_backend("lookup")
            replaced_index = self.rep.fileid_to_index.get(replaced_attr.fileid)
        except NfsError:
            pass
        self._modify(from_index)
        self._modify(to_index)
        self._modify(moving_index)
        if replaced_index is not None and replaced_index != moving_index:
            self._modify(replaced_index)
        self.backend.rename(backend_from, from_name, backend_to, to_name)
        self._charge_backend("rename")
        if replaced_index is not None and replaced_index != moving_index:
            self.rep.free(replaced_index)
        moving = self.rep.entry(moving_index)
        moving.parent = to_index
        moving.ctime = now
        from_entry.mtime = from_entry.ctime = now
        to_entry.mtime = to_entry.ctime = now
        delta_from = -(len(from_name.encode("utf-8")) + 16)
        delta_to = len(to_name.encode("utf-8")) + 16
        self.rep.update_size(from_index, from_entry.abstract_size + delta_from)
        self.rep.update_size(to_index, to_entry.abstract_size + delta_to)
        return ()

    @op()
    def _op_link(self, now: int, *args) -> tuple:
        # Outside the common abstract specification (single parent index).
        raise NfsError(NfsStatus.NFSERR_PERM, "LINK unsupported by spec")

    @op(read_only=True)
    def _op_readdir(self, now: int, dir_fh: bytes) -> tuple:
        dir_index, dir_entry = self._entry_for(dir_fh)
        if dir_entry.ftype != FileType.NFDIR:
            raise NfsError(NfsStatus.NFSERR_NOTDIR)
        raw = self.backend.readdir(self._backend_fh(dir_index))
        self._charge_backend("readdir", 32 * len(raw))
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
        self._charge_backend("statfs")
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
        concrete = self.backend.getattr(fh)
        self._charge_backend("getattr")
        meta = AbstractMeta(concrete.mode, concrete.uid, concrete.gid,
                            entry.atime, entry.mtime, entry.ctime,
                            entry.parent)
        if entry.ftype == FileType.NFREG:
            data, _ = self.backend.read(fh, 0, concrete.size)
            self._charge_backend("read", len(data))
            obj = AbstractObject(FileType.NFREG, gen, meta, data=data)
        elif entry.ftype == FileType.NFDIR:
            raw = self.backend.readdir(fh)
            self._charge_backend("readdir", 32 * len(raw))
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
            target = self.backend.readlink(fh)
            self._charge_backend("readlink")
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
            self._charge_backend("readdir")
            sibling = self.rep.fileid_to_index.get(fileid)
            if sibling is None:
                continue
            if self.rep.entry(sibling).fh is None:
                fh, _ = self.backend.lookup(parent_fh, name)
                self._charge_backend("lookup")
                self.rep.set_fh(sibling, fh)

# The declarative op table and the protocol's wire constants must agree:
# every registered handler implements a spec procedure, and the table's
# read-only set is exactly READ_ONLY_PROCS (the BFT read-only gate).
assert frozenset(NfsConformanceWrapper.OPS) <= \
    frozenset(proc.value for proc in NfsProc)
assert NfsConformanceWrapper.read_only_ops() == \
    frozenset(proc.value for proc in READ_ONLY_PROCS)
