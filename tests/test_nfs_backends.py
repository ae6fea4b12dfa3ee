"""Backend tests: NFS semantics of the core plus every vendor quirk."""

import pytest

from repro.nfs.backends.vendors import (ALL_BACKENDS, FreeBsdUfsBackend,
                                        LinuxExt2Backend, OpenBsdFfsBackend,
                                        SolarisUfsBackend)
from repro.nfs.backends.faulty import CorruptingBackend, LeakyBackend
from repro.nfs.protocol import FileType, NfsError, NfsStatus, Sattr


@pytest.fixture(params=ALL_BACKENDS, ids=lambda cls: cls.vendor)
def backend(request):
    return request.param()


def test_mount_and_root_attrs(backend):
    root = backend.mount()
    fattr = backend.getattr(root)
    assert fattr.ftype == FileType.NFDIR
    assert fattr.fileid == 2


def test_create_write_read_roundtrip(backend):
    root = backend.mount()
    fh, fattr = backend.create(root, "file.txt", Sattr())
    assert fattr.ftype == FileType.NFREG
    backend.write(fh, 0, b"hello world")
    data, fattr2 = backend.read(fh, 0, 100)
    assert data == b"hello world"
    assert fattr2.size == 11


def test_sparse_write_zero_fills(backend):
    root = backend.mount()
    fh, _ = backend.create(root, "sparse", Sattr())
    backend.write(fh, 10, b"end")
    data, _ = backend.read(fh, 0, 100)
    assert data == b"\x00" * 10 + b"end"


def test_mkdir_lookup_nested(backend):
    root = backend.mount()
    d1, _ = backend.mkdir(root, "a", Sattr())
    d2, _ = backend.mkdir(d1, "b", Sattr())
    backend.create(d2, "deep", Sattr())
    found, fattr = backend.lookup(d2, "deep")
    assert fattr.ftype == FileType.NFREG


def test_lookup_missing_is_noent(backend):
    root = backend.mount()
    with pytest.raises(NfsError) as err:
        backend.lookup(root, "ghost")
    assert err.value.status == NfsStatus.NFSERR_NOENT


def test_duplicate_create_is_exist(backend):
    root = backend.mount()
    backend.create(root, "dup", Sattr())
    with pytest.raises(NfsError) as err:
        backend.create(root, "dup", Sattr())
    assert err.value.status == NfsStatus.NFSERR_EXIST


def test_remove_then_stale_handle(backend):
    root = backend.mount()
    fh, _ = backend.create(root, "gone", Sattr())
    backend.remove(root, "gone")
    with pytest.raises(NfsError) as err:
        backend.getattr(fh)
    assert err.value.status == NfsStatus.NFSERR_STALE


def test_rmdir_nonempty_rejected(backend):
    root = backend.mount()
    d, _ = backend.mkdir(root, "full", Sattr())
    backend.create(d, "child", Sattr())
    with pytest.raises(NfsError) as err:
        backend.rmdir(root, "full")
    assert err.value.status == NfsStatus.NFSERR_NOTEMPTY


def test_rename_within_and_across_dirs(backend):
    root = backend.mount()
    d1, _ = backend.mkdir(root, "src", Sattr())
    d2, _ = backend.mkdir(root, "dst", Sattr())
    fh, _ = backend.create(d1, "f", Sattr())
    backend.write(fh, 0, b"payload")
    backend.rename(d1, "f", d1, "g")
    backend.rename(d1, "g", d2, "h")
    fh2, _ = backend.lookup(d2, "h")
    data, _ = backend.read(fh2, 0, 100)
    assert data == b"payload"
    with pytest.raises(NfsError):
        backend.lookup(d1, "f")


def test_symlink_readlink(backend):
    root = backend.mount()
    backend.symlink(root, "ln", "/target/path", Sattr())
    fh, fattr = backend.lookup(root, "ln")
    assert fattr.ftype == FileType.NFLNK
    assert backend.readlink(fh) == "/target/path"


def test_setattr_truncate(backend):
    root = backend.mount()
    fh, _ = backend.create(root, "t", Sattr())
    backend.write(fh, 0, b"0123456789")
    backend.setattr(fh, Sattr(size=4))
    data, _ = backend.read(fh, 0, 100)
    assert data == b"0123"


def test_statfs_reports_capacity(backend):
    root = backend.mount()
    stat = backend.statfs(root)
    assert stat.blocks > 0
    assert stat.bfree <= stat.blocks


def test_bad_handle_rejected(backend):
    with pytest.raises(NfsError) as err:
        backend.getattr(b"\x01\x02")
    assert err.value.status == NfsStatus.NFSERR_STALE


# -- vendor quirks ------------------------------------------------------------------


def test_file_handle_schemes_differ_across_vendors():
    handles = {}
    for cls in ALL_BACKENDS:
        backend = cls()
        root = backend.mount()
        fh, _ = backend.create(root, "same-name", Sattr())
        handles[cls.vendor] = fh
    assert len(set(handles.values())) == len(ALL_BACKENDS)
    assert len(handles["linux-ext2"]) == 8
    assert len(handles["solaris-ufs"]) == 16
    assert len(handles["openbsd-ffs"]) == 12


def test_readdir_orders_differ():
    names = ["zeta", "alpha", "mid", "beta"]
    orders = {}
    for cls in ALL_BACKENDS:
        backend = cls()
        root = backend.mount()
        for name in names:
            backend.create(root, name, Sattr())
        orders[cls.vendor] = [n for n, _ in backend.readdir(root)]
    assert orders["linux-ext2"] == names                    # insertion
    assert orders["openbsd-ffs"] == list(reversed(names))   # reverse
    assert len({tuple(o) for o in orders.values()}) >= 3    # mostly distinct


def test_linux_second_granularity_timestamps():
    backend = LinuxExt2Backend(clock=lambda: 12.789)
    root = backend.mount()
    fh, fattr = backend.create(root, "f", Sattr())
    assert fattr.mtime == 12_000_000  # rounded down to the second
    solaris = SolarisUfsBackend(clock=lambda: 12.789)
    fh2, fattr2 = solaris.create(solaris.mount(), "f", Sattr())
    assert fattr2.mtime == 12_789_000


def test_linux_unstable_writes_flag():
    assert LinuxExt2Backend.stable_writes is False
    assert all(cls.stable_writes for cls in ALL_BACKENDS
               if cls is not LinuxExt2Backend)


def test_freebsd_handles_nondeterministic_across_instances():
    a = FreeBsdUfsBackend(boot_salt=1)
    b = FreeBsdUfsBackend(boot_salt=2)
    fa, _ = a.create(a.mount(), "x", Sattr())
    fb, _ = b.create(b.mount(), "x", Sattr())
    assert fa != fb


def test_freebsd_server_restart_invalidates_handles():
    backend = FreeBsdUfsBackend(boot_salt=7)
    root = backend.mount()
    fh, _ = backend.create(root, "f", Sattr())
    backend.server_restart()
    with pytest.raises(NfsError) as err:
        backend.getattr(fh)
    assert err.value.status == NfsStatus.NFSERR_STALE
    # But the object is still reachable by name with a fresh handle.
    fh2, fattr = backend.lookup(backend.mount(), "f")
    assert fattr.ftype == FileType.NFREG


def test_other_vendors_keep_handles_across_restart():
    backend = SolarisUfsBackend()
    root = backend.mount()
    fh, _ = backend.create(root, "f", Sattr())
    backend.server_restart()
    assert backend.getattr(fh).ftype == FileType.NFREG


# -- fault injection ------------------------------------------------------------------


def test_leaky_backend_ages_out_and_rejuvenates():
    leaky = LeakyBackend(LinuxExt2Backend(), leak_per_op=600, limit=1500)
    root = leaky.mount()               # leaked: 600
    leaky.create(root, "ok", Sattr())  # leaked: 1200, still under limit
    with pytest.raises(NfsError) as err:
        leaky.create(root, "fails", Sattr())  # leaked: 1800 >= limit
    assert err.value.status == NfsStatus.NFSERR_IO
    leaky.rejuvenate()
    leaky.create(root, "fine-again", Sattr())


def test_leaky_backend_reads_survive_aging():
    leaky = LeakyBackend(LinuxExt2Backend(), leak_per_op=600, limit=1500)
    root = leaky.mount()
    fh, _ = leaky.create(root, "f", Sattr())
    for _ in range(5):
        leaky.getattr(fh)  # reads keep working after aging
    assert leaky.aged_out


def test_corrupting_backend_flips_written_bytes():
    inner = LinuxExt2Backend()
    corrupting = CorruptingBackend(inner, probability=1.0, seed=1)
    root = corrupting.mount()
    fh, _ = corrupting.create(root, "f", Sattr())
    corrupting.write(fh, 0, b"AAAAAAAAAA")
    data, _ = corrupting.read(fh, 0, 10)
    assert data != b"AAAAAAAAAA"
    assert corrupting.corruptions == 1
