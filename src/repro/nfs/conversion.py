"""Inverse abstraction function for the file service (paper Figure 5).

``put_objs`` receives a vector of abstract objects that together bring
the abstract state to a consistent checkpoint value.  The engine updates
the concrete file system to match:

- free entries just update the conformance representation (their backend
  object disappears when the parent directory is processed — the paper
  notes the parent must have changed too);
- files and symlinks first ensure their parent directory has been
  reconstructed (``update_directory``), then write their data/meta;
- directories recurse to their parent, then reconcile their backend
  contents against the new entry list: stale names are removed
  (recursively), renamed-in-place oids are renamed, and missing entries
  are created.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.errors import StateTransferError
from repro.nfs.protocol import FileType, NfsError, Sattr
from repro.nfs.spec import AbstractMeta, AbstractObject


def _sattr(meta: AbstractMeta, size: int) -> Sattr:
    """What a transferred object's meta-data sets on its backend object."""
    return Sattr(meta.mode, meta.uid, meta.gid, size)


class InverseConversion:
    """One ``put_objs`` invocation over a decoded object vector."""

    def __init__(self, wrapper, objects: Dict[int, AbstractObject]):
        self.wrapper = wrapper
        self.rep = wrapper.rep
        self.backend = wrapper.backend
        self.objects = objects
        self.updated: Set[int] = set()

    def run(self) -> None:
        # Free entries first, so stale reverse-map entries never shadow
        # the rebuild of live directories.
        for index in sorted(self.objects):
            if self.objects[index].is_free:
                self.rep.free(index, self.objects[index].gen)
        for index in sorted(self.objects):
            obj = self.objects[index]
            if obj.is_free:
                continue
            if obj.ftype == FileType.NFDIR:
                self.update_directory(index)
            else:
                self.update_directory(obj.meta.parent)
                self._update_leaf(index, obj)
        # Directory meta/conformance updates happen inside
        # update_directory; leaves inside _update_leaf.

    # -- directories --------------------------------------------------------------

    def update_directory(self, index: int) -> None:
        obj = self.objects.get(index)
        if index in self.updated or obj is None:
            return
        if obj.ftype != FileType.NFDIR:
            raise StateTransferError(
                f"object {index} expected directory, got {obj.ftype}")
        self.updated.add(index)
        if obj.meta.parent != index:
            self.update_directory(obj.meta.parent)

        entry = self.rep.entry(index)
        if entry.fh is None or entry.is_free:
            raise StateTransferError(
                f"directory {index} has no backend object after parent "
                f"reconstruction — inconsistent transfer vector")
        dir_fh = entry.fh

        new_by_name = {name: (cidx, cgen) for name, cidx, cgen in obj.entries}
        current = self.wrapper._backend_op("readdir", dir_fh)
        current_oid = {}
        for name, fileid in current:
            current_oid[name] = self.rep.fileid_to_index.get(fileid)

        # Classify: removals, renames-in-place, additions.
        new_index_to_name = {cidx: name for name, (cidx, _) in
                             new_by_name.items()}
        renames = []   # (old_name, new_name)
        removals = []
        for name, mapped in current_oid.items():
            # Keep only if the name maps to the same oid — index AND
            # generation: a bumped generation means the entry was freed
            # and reassigned (possibly as a different type or with new
            # content), so the backend object must be recreated.
            keep = (name in new_by_name and mapped is not None
                    and new_by_name[name][0] == mapped
                    and new_by_name[name][1] == self.rep.generations[mapped])
            if keep:
                continue
            if (mapped is not None and mapped in new_index_to_name
                    and mapped not in self.objects):
                # Same object, new name, object itself unchanged: a rename
                # in place — preserve its backend data.
                renames.append((name, new_index_to_name[mapped]))
            else:
                removals.append(name)
        for name in removals:
            self._remove_recursive(dir_fh, name)
        parked = []
        for old_name, new_name in renames:
            temp = self._rename_safe(dir_fh, old_name, new_name)
            if temp is not None:
                parked.append((temp, new_name))
        for temp, new_name in parked:
            self._rename_safe(dir_fh, temp, new_name)

        present = set()
        for name, fileid in self.backend.readdir(dir_fh):
            mapped = self.rep.fileid_to_index.get(fileid)
            if name in new_by_name and mapped == new_by_name[name][0]:
                present.add(name)
        for name, (cidx, cgen) in sorted(new_by_name.items()):
            if name not in present:
                self._create_child(index, dir_fh, name, cidx, cgen)

        # Apply the directory's own meta.
        self.wrapper._backend_op("setattr", dir_fh, _sattr(obj.meta, -1))
        self._apply_meta(index, obj)

    def _apply_meta(self, index: int, obj: AbstractObject) -> None:
        """A live entry takes its transferred object's generation,
        parent, times and size."""
        entry = self.rep.entry(index)
        self.rep.set_generation(index, obj.gen)
        entry.parent = obj.meta.parent
        entry.atime = obj.meta.atime
        entry.mtime = obj.meta.mtime
        entry.ctime = obj.meta.ctime
        self.rep.update_size(index, obj.abstract_size())

    def _rename_safe(self, dir_fh: bytes, old_name: str,
                     new_name: str) -> Optional[str]:
        """Rename within a directory.  A target that is still occupied
        is the source of another pending rename (removals ran first), and
        renaming onto it would destroy that file: park this one under a
        temporary name instead and return the name, for the caller to
        finish the move once every pending source has stepped aside."""
        try:
            self.backend.lookup(dir_fh, new_name)
        except NfsError:
            temp = None
        else:
            temp = f".base-tmp-{old_name}"
        self.wrapper._backend_op("rename", dir_fh, old_name, dir_fh,
                                 temp or new_name)
        return temp

    def _remove_recursive(self, dir_fh: bytes, name: str) -> None:
        fh, fattr = self.backend.lookup(dir_fh, name)
        if fattr.ftype == FileType.NFDIR:
            for child_name, _ in list(self.backend.readdir(fh)):
                self._remove_recursive(fh, child_name)
        self.wrapper._backend_op(
            "rmdir" if fattr.ftype == FileType.NFDIR else "remove",
            dir_fh, name)
        self.rep.forget_fileid(fattr.fileid)

    def _create_child(self, dir_index: int, dir_fh: bytes, name: str,
                      cidx: int, cgen: int) -> None:
        child_obj = self.objects.get(cidx)
        if child_obj is None or child_obj.is_free:
            raise StateTransferError(
                f"directory {dir_index} references object {cidx} ({name!r}) "
                f"with no live object in the transfer vector")
        fh, fattr = self.wrapper._make_object(
            child_obj.ftype, dir_fh, name, child_obj.target,
            _sattr(child_obj.meta, -1))
        self.rep.bind(cidx, child_obj.ftype, cgen, fh, fattr.fileid,
                      dir_index)

    # -- files and symlinks ----------------------------------------------------------

    def _update_leaf(self, index: int, obj: AbstractObject) -> None:
        entry = self.rep.entry(index)
        if entry.fh is None or entry.is_free:
            raise StateTransferError(
                f"leaf {index} has no backend object after parent "
                f"reconstruction")
        size = len(obj.data) if obj.ftype == FileType.NFREG else -1
        self.wrapper._backend_op("setattr", entry.fh, _sattr(obj.meta, size))
        if obj.data:
            self.wrapper._backend_op("write", entry.fh, 0, obj.data)
        self._apply_meta(index, obj)
