"""Conformance wrapper: the heart of the BASE methodology.

The central property: wrappers around *different* backends, fed the same
operation sequence with the same agreed nondeterministic values, produce
byte-identical abstract states and byte-identical client replies.
"""

import pytest

from repro.base.state import AbstractStateManager
from repro.encoding.canonical import canonical, decanonical
from repro.nfs.backends.vendors import (ALL_BACKENDS, FreeBsdUfsBackend,
                                        LinuxExt2Backend)
from repro.nfs.conformance import FREE
from repro.nfs.protocol import FileType, NfsStatus
from repro.nfs.spec import (
    AbstractSpecConfig,
    ROOT_OID,
    decode_object,
    oid_bytes,
)
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.base.nondet import ClockValue

SPEC = AbstractSpecConfig(array_size=64, capacity_bytes=1024 * 1024,
                          max_file_size=64 * 1024, max_name_len=48)


class WrapperHarness:
    """Drives a wrapper the way the BASE library would."""

    def __init__(self, backend_cls, spec=SPEC, **backend_kwargs):
        self.clock = 0.0
        backend = backend_cls(clock=lambda: self.clock + 0.001,
                              **backend_kwargs)
        self.wrapper = NfsConformanceWrapper(backend, spec=spec,
                                             clock=lambda: self.clock)
        self.manager = AbstractStateManager(self.wrapper, branching=8)
        self.seq = 0

    def op(self, proc, *args, read_only=False):
        self.seq += 1
        self.clock += 1.0
        nondet = b"" if read_only else ClockValue.encode(self.clock)
        raw = self.wrapper.execute(canonical((proc,) + args), "client",
                                   nondet, read_only=read_only)
        result = decanonical(raw)
        return result

    def ok(self, proc, *args, read_only=False):
        result = self.op(proc, *args, read_only=read_only)
        assert result[0] == 0, f"{proc} failed: {NfsStatus(result[0]).name}"
        return result[1:]

    def abstract_state(self):
        return [self.wrapper.get_obj(i) for i in range(SPEC.array_size)]


SATTR_FILE = (0o644, 0, 0, -1, -1, -1)
SATTR_DIR = (0o755, 0, 0, -1, -1, -1)


def standard_workload(h: WrapperHarness):
    h.ok("mkdir", ROOT_OID, "docs", SATTR_DIR)
    dir_fh = h.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    f1, _ = h.ok("create", dir_fh, "b.txt", SATTR_FILE)
    f2, _ = h.ok("create", dir_fh, "a.txt", SATTR_FILE)
    h.ok("write", f1, 0, b"contents of b")
    h.ok("write", f2, 0, b"contents of a")
    h.ok("symlink", dir_fh, "link", "a.txt", SATTR_FILE)
    h.ok("rename", dir_fh, "b.txt", dir_fh, "z.txt")
    h.ok("create", ROOT_OID, "top", SATTR_FILE)
    h.ok("remove", ROOT_OID, "top")
    return dir_fh, f1, f2


@pytest.mark.parametrize("backend_cls", ALL_BACKENDS,
                         ids=lambda c: c.vendor)
def test_basic_operation_flow(backend_cls):
    h = WrapperHarness(backend_cls)
    standard_workload(h)
    entries = h.ok("readdir",
                   h.ok("lookup", ROOT_OID, "docs", read_only=True)[0],
                   read_only=True)[0]
    assert [name for name, _ in entries] == ["a.txt", "link", "z.txt"]


def test_identical_abstract_state_across_all_backends():
    """THE property: four different implementations, one abstract state."""
    states = {}
    replies = {}
    for backend_cls in ALL_BACKENDS:
        kwargs = {"boot_salt": hash(backend_cls.vendor) & 0xFFFF} \
            if backend_cls is FreeBsdUfsBackend else {}
        h = WrapperHarness(backend_cls, **kwargs)
        standard_workload(h)
        states[backend_cls.vendor] = h.abstract_state()
        dir_fh = h.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
        replies[backend_cls.vendor] = (
            h.ok("readdir", dir_fh, read_only=True),
            h.ok("getattr", dir_fh, read_only=True),
        )
    reference = states["linux-ext2"]
    for vendor, state in states.items():
        assert state == reference, f"{vendor} abstract state diverged"
    reference_reply = replies["linux-ext2"]
    for vendor, reply in replies.items():
        assert reply == reference_reply, f"{vendor} replies diverged"


def test_readdir_sorted_regardless_of_backend_order():
    h = WrapperHarness(OpenBsdFfsBackend := ALL_BACKENDS[2])
    for name in ["zz", "aa", "mm"]:
        h.ok("create", ROOT_OID, name, SATTR_FILE)
    entries = h.ok("readdir", ROOT_OID, read_only=True)[0]
    assert [n for n, _ in entries] == ["aa", "mm", "zz"]


def test_timestamps_are_agreed_values_not_backend_clock():
    """The backend's clock is skewed +1ms and Linux rounds to seconds; the
    abstract mtime must be exactly the agreed value regardless."""
    h = WrapperHarness(LinuxExt2Backend)
    fh, fattr_fields = h.ok("create", ROOT_OID, "f", SATTR_FILE)
    from repro.nfs.protocol import Fattr
    fattr = Fattr.decode(fattr_fields)
    assert fattr.mtime == 1_000_000  # == the nondet value (1.0s), exactly


def test_oids_assigned_deterministically_lowest_free():
    h = WrapperHarness(LinuxExt2Backend)
    f1, _ = h.ok("create", ROOT_OID, "one", SATTR_FILE)
    f2, _ = h.ok("create", ROOT_OID, "two", SATTR_FILE)
    assert f1 == oid_bytes(1, 1)
    assert f2 == oid_bytes(2, 1)
    h.ok("remove", ROOT_OID, "one")
    f3, _ = h.ok("create", ROOT_OID, "three", SATTR_FILE)
    assert f3 == oid_bytes(1, 2)  # reused index, bumped generation


def test_free_slots_share_one_read_only_entry():
    """A slot has its own entry only while live; a free one points at
    the shared ``FREE`` entry, and a stray write to it raises instead of
    changing every free slot."""
    h = WrapperHarness(LinuxExt2Backend)
    rep = h.wrapper.rep
    assert all(entry is FREE for entry in rep.entries[1:])
    h.ok("create", ROOT_OID, "one", SATTR_FILE)
    assert rep.entry(1) is not FREE and not rep.entry(1).is_free
    h.ok("remove", ROOT_OID, "one")
    assert rep.entry(1) is FREE
    with pytest.raises(AttributeError):
        rep.entry(1).parent = 0
    assert FREE.parent == 0 and FREE.is_free


def test_stale_oid_rejected_after_generation_bump():
    h = WrapperHarness(LinuxExt2Backend)
    f1, _ = h.ok("create", ROOT_OID, "one", SATTR_FILE)
    h.ok("remove", ROOT_OID, "one")
    h.ok("create", ROOT_OID, "two", SATTR_FILE)
    result = h.op("getattr", f1, read_only=True)
    assert result[0] == int(NfsStatus.NFSERR_STALE)


def test_virtualized_nospc_from_abstract_capacity():
    spec = AbstractSpecConfig(array_size=16, capacity_bytes=1000,
                              max_file_size=64 * 1024, max_name_len=48)
    h = WrapperHarness(LinuxExt2Backend, spec=spec)
    fh, _ = h.ok("create", ROOT_OID, "big", SATTR_FILE)
    result = h.op("write", fh, 0, b"x" * 2000)
    assert result[0] == int(NfsStatus.NFSERR_NOSPC)


def test_virtualized_fbig():
    spec = AbstractSpecConfig(array_size=16, capacity_bytes=10**9,
                              max_file_size=100, max_name_len=48)
    h = WrapperHarness(LinuxExt2Backend, spec=spec)
    fh, _ = h.ok("create", ROOT_OID, "f", SATTR_FILE)
    assert h.op("write", fh, 0, b"y" * 200)[0] == int(NfsStatus.NFSERR_FBIG)
    assert h.op("write", fh, 0, b"y" * 50)[0] == 0


def test_virtualized_nametoolong():
    h = WrapperHarness(LinuxExt2Backend)
    result = h.op("create", ROOT_OID, "n" * 100, SATTR_FILE)
    assert result[0] == int(NfsStatus.NFSERR_NAMETOOLONG)


def test_link_rejected_outside_spec():
    h = WrapperHarness(LinuxExt2Backend)
    assert h.op("link", ROOT_OID, ROOT_OID, "hard")[0] == \
        int(NfsStatus.NFSERR_PERM)


def test_mutating_op_on_read_only_path_rejected():
    h = WrapperHarness(LinuxExt2Backend)
    result = h.op("create", ROOT_OID, "f", SATTR_FILE, read_only=True)
    assert result[0] == int(NfsStatus.NFSERR_ROFS)


def test_get_obj_encodes_decoded_roundtrip():
    h = WrapperHarness(LinuxExt2Backend)
    dir_fh, f1, f2 = standard_workload(h)
    for index in range(SPEC.array_size):
        obj = decode_object(h.wrapper.get_obj(index))
        if index == 0:
            assert obj.ftype == FileType.NFDIR
    root_obj = decode_object(h.wrapper.get_obj(0))
    assert [e[0] for e in root_obj.entries] == ["docs"]


def test_put_objs_roundtrip_to_fresh_backend():
    """Full-state transfer: abstract state from a Linux wrapper installed
    into a fresh FreeBSD wrapper reproduces identical abstract state."""
    src = WrapperHarness(LinuxExt2Backend)
    standard_workload(src)
    state = src.abstract_state()

    dst = WrapperHarness(FreeBsdUfsBackend, boot_salt=99)
    dst.wrapper.put_objs({i: blob for i, blob in enumerate(state)})
    assert dst.abstract_state() == state
    # And the concrete file system is actually usable.
    dir_fh = dst.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    entries = dst.ok("readdir", dir_fh, read_only=True)[0]
    assert [n for n, _ in entries] == ["a.txt", "link", "z.txt"]
    a_fh = dst.ok("lookup", dir_fh, "a.txt", read_only=True)[0]
    data = dst.ok("read", a_fh, 0, 100, read_only=True)[0]
    assert data == b"contents of a"


def test_put_objs_partial_update():
    """Only the changed objects are shipped; unchanged ones survive."""
    a = WrapperHarness(LinuxExt2Backend)
    b = WrapperHarness(LinuxExt2Backend)
    standard_workload(a)
    standard_workload(b)
    before = b.abstract_state()
    # Extra ops only on a.
    dir_fh = a.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    f = a.ok("lookup", dir_fh, "a.txt", read_only=True)[0]
    a.ok("write", f, 0, b"UPDATED")
    after = a.abstract_state()
    changed = {i: blob for i, blob in enumerate(after)
               if blob != before[i]}
    assert 0 < len(changed) < 5
    b.wrapper.put_objs(changed)
    assert b.abstract_state() == after


def test_put_objs_handles_deletions_and_frees():
    a = WrapperHarness(LinuxExt2Backend)
    b = WrapperHarness(LinuxExt2Backend)
    standard_workload(a)
    standard_workload(b)
    before = a.abstract_state()
    dir_fh = a.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    a.ok("remove", dir_fh, "z.txt")
    after = a.abstract_state()
    changed = {i: blob for i, blob in enumerate(after) if blob != before[i]}
    b.wrapper.put_objs(changed)
    assert b.abstract_state() == after
    dir_fh_b = b.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    entries = b.ok("readdir", dir_fh_b, read_only=True)[0]
    assert [n for n, _ in entries] == ["a.txt", "link"]


def test_put_objs_rename_in_place_preserves_unshipped_data():
    """A pure rename changes only the directory object; the file object is
    unchanged and NOT shipped — its data must survive via backend rename."""
    a = WrapperHarness(LinuxExt2Backend)
    b = WrapperHarness(LinuxExt2Backend)
    for h in (a, b):
        fh, _ = h.ok("create", ROOT_OID, "old-name", SATTR_FILE)
        h.ok("write", fh, 0, b"precious data")
    before = a.abstract_state()
    # Rename on a only — note mtime changes on the dir, and the file's
    # ctime changes, so the file object IS shipped here.  To force the
    # pure-rename path, craft the delta manually: ship only the root dir.
    a.ok("rename", ROOT_OID, "old-name", ROOT_OID, "new-name")
    after = a.abstract_state()
    changed = {i: blob for i, blob in enumerate(after) if blob != before[i]}
    b.wrapper.put_objs(changed)
    assert b.abstract_state() == after
    fh_b = b.ok("lookup", ROOT_OID, "new-name", read_only=True)[0]
    assert b.ok("read", fh_b, 0, 100, read_only=True)[0] == b"precious data"


def test_a_create_that_fails_after_allocating_hands_its_entry_back():
    """A directory whose backend object vanished answers CREATE with
    NFSERR_STALE only after the new entry was allocated: the entry goes
    back to the free pool, so the next create takes the lowest index."""
    h = WrapperHarness(LinuxExt2Backend)
    dir_fh, _ = h.ok("mkdir", ROOT_OID, "d", SATTR_DIR)
    assert dir_fh == oid_bytes(1, 1)
    h.wrapper.backend.rmdir(h.wrapper.rep.entry(0).fh, "d")
    h.wrapper.rep.set_fh(1, None)   # its handle must now be re-resolved
    assert h.op("create", dir_fh, "f", SATTR_FILE) == (
        int(NfsStatus.NFSERR_STALE),)
    assert h.ok("create", ROOT_OID, "g", SATTR_FILE)[0] == oid_bytes(2, 1)


# -- regression: a directory renamed into its own subtree ------------------------
#
# Every vendor accepted ``rename(/, "a", /a/b, "c")``: the root lost ``a``,
# and ``a`` and ``b`` became each other's parent.  No fresh replica could
# install that state: ``put_objs`` rebuilds a directory from its parent
# chain, which no longer reached the root.

@pytest.mark.parametrize("backend_cls", ALL_BACKENDS, ids=lambda c: c.vendor)
def test_a_directory_cannot_move_into_its_own_subtree(backend_cls):
    h = WrapperHarness(backend_cls)
    a, _ = h.ok("mkdir", ROOT_OID, "a", SATTR_DIR)
    b, _ = h.ok("mkdir", a, "b", SATTR_DIR)
    state, used = h.abstract_state(), h.wrapper.rep.bytes_used
    modified = []
    h.wrapper.library.modify = modified.append
    for to_fh in (b, a):
        assert h.op("rename", ROOT_OID, "a", to_fh, "c") == (
            int(NfsStatus.NFSERR_INVAL),)
    assert modified == []
    assert (h.abstract_state(), h.wrapper.rep.bytes_used) == (state, used)
    fresh = WrapperHarness(backend_cls)
    fresh.wrapper.put_objs(dict(enumerate(state)))
    assert fresh.abstract_state() == state


# -- regression: values outside their unsigned fields ---------------------------
#
# offset, count and the sattr fields are unsigned on the wire of the
# abstract specification.  Unchecked, Python's negative slices gave them
# a meaning: WRITE at offset -3 *inserted* bytes without moving the
# virtual-capacity accounting, SETATTR size=-5 truncated from the end and
# recorded an abstract size below the 64-byte floor, READ count=-2
# returned all but the last two bytes.  From above, SETATTR mode=2**40
# replied status 0 and the next ``get_obj`` of the file raised
# ``EncodingError`` out of ``pack_uint``: one request, and no correct
# replica could take another checkpoint.

def test_negative_unsigned_fields_are_malformed_on_every_backend():
    malformed = canonical((int(NfsStatus.NFSERR_IO), "malformed request"))
    for backend_cls in ALL_BACKENDS:
        h = WrapperHarness(backend_cls)
        fh, _ = h.ok("create", ROOT_OID, "f", SATTR_FILE)
        h.ok("write", fh, 0, b"0123456789")
        entry = h.wrapper.rep.entry(1)
        state = h.abstract_state()
        before = (h.wrapper.rep.bytes_used, entry.abstract_size)
        assert entry.abstract_size == 74
        modified = []
        h.wrapper.library.modify = modified.append
        hostile = [
            ("write", fh, -3, b"ABCDE"),
            ("read", fh, -2, 4),
            ("read", fh, 0, -2),
            ("setattr", fh, (-1, -1, -1, -5, -1, -1)),
            ("setattr", fh, (-7, -1, -1, -1, -1, -1)),
            ("setattr", fh, (-1, -1, -1, -1, -1, -2)),
            ("create", ROOT_OID, "g", (0o644, 0, 0, -2, -1, -1)),
            ("mkdir", ROOT_OID, "d", (0o755, -9, 0, -1, -1, -1)),
            ("symlink", ROOT_OID, "l", "f", (0o777, 0, -3, -1, -1, -1)),
            ("setattr", fh, (2**40, -1, -1, -1, -1, -1)),
            ("setattr", fh, (-1, 2**33, -1, -1, -1, -1)),
            ("setattr", fh, (-1, -1, 2**32, -1, -1, -1)),
            ("setattr", fh, (-1, -1, -1, -1, 2**64, -1)),
            ("setattr", fh, (-1, -1, -1, -1, -1, 2**64)),
            ("create", ROOT_OID, "g", (2**32, 0, 0, -1, -1, -1)),
            ("mkdir", ROOT_OID, "d", (0o755, 2**40, 0, -1, -1, -1)),
            ("symlink", ROOT_OID, "l", "f", (0o777, 0, 2**32, -1, -1, -1)),
        ]
        for op in hostile:
            h.clock += 1.0
            served = h.wrapper.backend.ops_served
            # One envelope, byte for byte, whatever the vendor underneath.
            assert h.wrapper.execute(canonical(op), "client",
                                     ClockValue.encode(h.clock)) == malformed
            # Refused before ``modify`` and before any backend call, and
            # every object still encodes.
            assert modified == []
            assert h.wrapper.backend.ops_served == served
            assert h.abstract_state() == state
        assert (h.wrapper.rep.bytes_used, entry.abstract_size) == before
        assert h.ok("read", fh, 0, 64, read_only=True)[0] == b"0123456789"
        # The widest value of every field is in range, and encodes.
        h.ok("setattr", fh, (2**32 - 1, 2**32 - 1, 2**32 - 1, -1,
                             2**64 - 1, 2**64 - 1))
        assert decode_object(h.wrapper.get_obj(1)).meta[:5] == (
            2**32 - 1, 2**32 - 1, 2**32 - 1, 2**64 - 1, 2**64 - 1)
