"""Inverse-conversion engine edge cases (Figure 5's tricky paths)."""

import pytest

from repro.errors import StateTransferError
from repro.nfs.backends.vendors import LinuxExt2Backend, SolarisUfsBackend
from repro.nfs.spec import ROOT_OID
from tests.test_nfs_wrapper import (
    SATTR_DIR,
    SATTR_FILE,
    WrapperHarness,
)


def transfer_delta(src, dst, before):
    after = src.abstract_state()
    changed = {i: blob for i, blob in enumerate(after) if blob != before[i]}
    dst.wrapper.put_objs(changed)
    assert dst.abstract_state() == after
    return changed


def paired(backend_a=LinuxExt2Backend, backend_b=SolarisUfsBackend):
    return WrapperHarness(backend_a), WrapperHarness(backend_b)


def test_cross_directory_move():
    a, b = paired()
    for h in (a, b):
        h.ok("mkdir", ROOT_OID, "src", SATTR_DIR)
        h.ok("mkdir", ROOT_OID, "dst", SATTR_DIR)
        src = h.ok("lookup", ROOT_OID, "src", read_only=True)[0]
        fh, _ = h.ok("create", src, "f.txt", SATTR_FILE)
        h.ok("write", fh, 0, b"move me")
    before = a.abstract_state()
    src = a.ok("lookup", ROOT_OID, "src", read_only=True)[0]
    dst = a.ok("lookup", ROOT_OID, "dst", read_only=True)[0]
    a.ok("rename", src, "f.txt", dst, "f.txt")
    transfer_delta(a, b, before)
    dst_b = b.ok("lookup", ROOT_OID, "dst", read_only=True)[0]
    fh_b = b.ok("lookup", dst_b, "f.txt", read_only=True)[0]
    assert b.ok("read", fh_b, 0, 100, read_only=True)[0] == b"move me"
    src_b = b.ok("lookup", ROOT_OID, "src", read_only=True)[0]
    assert b.ok("readdir", src_b, read_only=True)[0] == ()


def test_rename_replacing_existing_target():
    a, b = paired()
    for h in (a, b):
        f1, _ = h.ok("create", ROOT_OID, "old", SATTR_FILE)
        h.ok("write", f1, 0, b"keep")
        f2, _ = h.ok("create", ROOT_OID, "target", SATTR_FILE)
        h.ok("write", f2, 0, b"die")
    before = a.abstract_state()
    a.ok("rename", ROOT_OID, "old", ROOT_OID, "target")
    transfer_delta(a, b, before)
    fh = b.ok("lookup", ROOT_OID, "target", read_only=True)[0]
    assert b.ok("read", fh, 0, 100, read_only=True)[0] == b"keep"
    entries = b.ok("readdir", ROOT_OID, read_only=True)[0]
    assert [n for n, _ in entries] == ["target"]


def test_entry_type_change_file_to_directory():
    """An entry freed and reassigned as a different type transfers
    cleanly (generation bump, recreate in the backend)."""
    a, b = paired()
    for h in (a, b):
        h.ok("create", ROOT_OID, "thing", SATTR_FILE)
    before = a.abstract_state()
    a.ok("remove", ROOT_OID, "thing")
    a.ok("mkdir", ROOT_OID, "thing", SATTR_DIR)  # reuses index 1, gen 2
    transfer_delta(a, b, before)
    fh = b.ok("lookup", ROOT_OID, "thing", read_only=True)[0]
    assert b.ok("readdir", fh, read_only=True)[0] == ()


def test_deep_tree_created_parent_first():
    """New nested directories transfer even when the child object index
    is lower than the parent's (update_directory recursion)."""
    a, b = paired()
    before = a.abstract_state()
    a.ok("mkdir", ROOT_OID, "x", SATTR_DIR)
    x = a.ok("lookup", ROOT_OID, "x", read_only=True)[0]
    a.ok("mkdir", x, "y", SATTR_DIR)
    y = a.ok("lookup", x, "y", read_only=True)[0]
    fh, _ = a.ok("create", y, "deep.txt", SATTR_FILE)
    a.ok("write", fh, 0, b"deep")
    transfer_delta(a, b, before)
    x_b = b.ok("lookup", ROOT_OID, "x", read_only=True)[0]
    y_b = b.ok("lookup", x_b, "y", read_only=True)[0]
    f_b = b.ok("lookup", y_b, "deep.txt", read_only=True)[0]
    assert b.ok("read", f_b, 0, 100, read_only=True)[0] == b"deep"


def test_subtree_deletion_transfers():
    a, b = paired()
    for h in (a, b):
        h.ok("mkdir", ROOT_OID, "tree", SATTR_DIR)
        t = h.ok("lookup", ROOT_OID, "tree", read_only=True)[0]
        h.ok("mkdir", t, "branch", SATTR_DIR)
        br = h.ok("lookup", t, "branch", read_only=True)[0]
        h.ok("create", br, "leaf", SATTR_FILE)
    before = a.abstract_state()
    t = a.ok("lookup", ROOT_OID, "tree", read_only=True)[0]
    br = a.ok("lookup", t, "branch", read_only=True)[0]
    a.ok("remove", br, "leaf")
    a.ok("rmdir", t, "branch")
    a.ok("rmdir", ROOT_OID, "tree")
    transfer_delta(a, b, before)
    assert b.ok("readdir", ROOT_OID, read_only=True)[0] == ()


def test_symlink_retarget_via_recreate():
    a, b = paired()
    for h in (a, b):
        h.ok("symlink", ROOT_OID, "ln", "old-target", SATTR_FILE)
    before = a.abstract_state()
    a.ok("remove", ROOT_OID, "ln")
    a.ok("symlink", ROOT_OID, "ln", "new-target", SATTR_FILE)
    transfer_delta(a, b, before)
    fh = b.ok("lookup", ROOT_OID, "ln", read_only=True)[0]
    assert b.ok("readlink", fh, read_only=True)[0] == "new-target"


def test_inconsistent_vector_rejected():
    """A directory referencing an object absent from the vector (and from
    the backend) must raise, not silently corrupt."""
    from repro.nfs.spec import (AbstractMeta, AbstractObject, FileType,
                                encode_object)
    _, b = paired()
    meta = AbstractMeta(0o755, 0, 0, 0, 0, 0, parent=0)
    bogus_root = AbstractObject(FileType.NFDIR, 1, meta,
                                entries=(("ghost", 7, 1),))
    with pytest.raises(StateTransferError):
        b.wrapper.put_objs({0: encode_object(bogus_root)})


def test_metadata_only_change_transfers():
    a, b = paired()
    for h in (a, b):
        h.ok("create", ROOT_OID, "m", SATTR_FILE)
    before = a.abstract_state()
    fh = a.ok("lookup", ROOT_OID, "m", read_only=True)[0]
    a.ok("setattr", fh, (0o600, 5, 6, -1, -1, -1))
    transfer_delta(a, b, before)
    fh_b = b.ok("lookup", ROOT_OID, "m", read_only=True)[0]
    from repro.nfs.protocol import Fattr
    attr = Fattr.decode(b.ok("getattr", fh_b, read_only=True)[0])
    assert (attr.mode, attr.uid, attr.gid) == (0o600, 5, 6)


@pytest.mark.parametrize("backend_cls", [LinuxExt2Backend, SolarisUfsBackend],
                         ids=lambda c: c.vendor)
def test_swapped_names_are_repaired_by_renaming_in_place(backend_cls):
    """Two files of one directory swap names behind the wrapper's back
    (Figure 5's directory repair): only the directory object differs
    from the checkpoint, so put_objs renames the unchanged files back —
    each target name still occupied by the other — and keeps their
    backend objects."""
    h = WrapperHarness(backend_cls)
    d = h.ok("mkdir", ROOT_OID, "d", SATTR_DIR)[0]
    for name in ("x", "y"):
        fh, _ = h.ok("create", d, name, SATTR_FILE)
        h.ok("write", fh, 0, b"was " + name.encode())
    checkpoint = h.abstract_state()
    wrapper = h.wrapper
    d_index, _ = wrapper._entry_for(d)
    fileids = [e.fileid for e in wrapper.rep.entries]
    dir_fh = wrapper._backend_fh(d_index)
    for old, new in (("x", "t"), ("y", "x"), ("t", "y")):
        wrapper.backend.rename(dir_fh, old, dir_fh, new)
    damaged = h.abstract_state()
    delta = {i: blob for i, blob in enumerate(checkpoint)
             if blob != damaged[i]}
    assert list(delta) == [d_index]

    wrapper.put_objs(delta)
    assert h.abstract_state() == checkpoint
    assert [e.fileid for e in wrapper.rep.entries] == fileids
    for name in ("x", "y"):
        fh = h.ok("lookup", d, name, read_only=True)[0]
        assert h.ok("read", fh, 0, 100, read_only=True)[0] == \
            b"was " + name.encode()
