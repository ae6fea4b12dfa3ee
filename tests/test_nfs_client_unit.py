"""NfsClient unit tests: path resolution, cache behaviour, error paths."""

import pytest

from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.client import NfsClient, TRANSFER_SIZE
from repro.nfs.protocol import NfsError, NfsStatus
from repro.nfs.service import NFS_SERVICE
from repro.service.deploy import UnreplicatedDeployment


def nfs_std_transport():
    return UnreplicatedDeployment.build(NFS_SERVICE, LinuxExt2Backend).client


@pytest.fixture
def fs():
    return NfsClient(nfs_std_transport(), attr_ttl=3.0)


def test_path_normalization(fs):
    fs.mkdir("/a")
    fs.write_file("/a/f", b"x")
    assert fs.read_file("a/f") == b"x"          # leading slash optional
    assert fs.read_file("//a//f") == b"x"       # duplicate slashes collapse


def test_resolve_parent_of_root_rejected(fs):
    with pytest.raises(NfsError):
        fs.remove("/")


def test_write_creates_then_overwrites(fs):
    fs.write_file("/f", b"one")
    fs.write_file("/f", b"two-longer")
    assert fs.read_file("/f") == b"two-longer"


def test_overwrite_shorter_leaves_no_tail(fs):
    fs.write_file("/f", b"a" * 100)
    fs.write_file("/f", b"b")
    data = fs.read_file("/f")
    # write_file overwrites from 0 but does not truncate; NFS semantics
    # would keep the tail unless truncated via setattr.  Our client
    # API's read returns the full current file.
    assert data[0:1] == b"b"


def test_multi_chunk_write_and_read(fs):
    body = bytes(range(256)) * 64  # 16 KB: 4 transfers
    fs.write_file("/big", body)
    fs.drop_caches()
    assert fs.read_file("/big") == body


def test_write_without_create_flag(fs):
    with pytest.raises(NfsError) as err:
        fs.write_file("/missing", b"x", create=False)
    assert err.value.status == NfsStatus.NFSERR_NOENT


def test_lookup_cache_expires_with_ttl(fs):
    fs.write_file("/cached", b"v")
    fs.getattr("/cached")
    before = fs.calls_issued
    fs.getattr("/cached")
    assert fs.calls_issued == before            # cache hit
    # Advance simulated time beyond the TTL via a write elsewhere plus
    # explicit clock passage.
    fs.transport.scheduler.run_until(fs.transport.now + 5.0)
    fs.getattr("/cached")
    assert fs.calls_issued > before             # expired, went to wire


def test_caches_disabled_mode():
    fs = NfsClient(nfs_std_transport(), use_caches=False)
    fs.write_file("/f", b"x")
    a = fs.calls_issued
    fs.getattr("/f")
    fs.getattr("/f")
    assert fs.calls_issued >= a + 4             # 2 lookups + 2 getattrs


def test_rename_updates_view(fs):
    fs.write_file("/old", b"content")
    fs.rename("/old", "/new")
    assert fs.exists("/new") and not fs.exists("/old")
    assert fs.read_file("/new") == b"content"


def test_exists_propagates_unexpected_errors(fs):
    fs.mkdir("/d")
    fs.write_file("/d/f", b"x")
    # NOTDIR from treating a file as a directory is NOT a notfound.
    with pytest.raises(NfsError) as err:
        fs.exists("/d/f/child")
    assert err.value.status == NfsStatus.NFSERR_NOTDIR


def test_listdir_and_setattr(fs):
    fs.mkdir("/dir")
    for name in ("b", "a"):
        fs.write_file(f"/dir/{name}", b"1")
    assert sorted(fs.listdir("/dir")) == ["a", "b"]
    attr = fs.setattr("/dir/a", mode=0o600)
    assert attr.mode == 0o600
    truncated = fs.setattr("/dir/a", size=0)
    assert truncated.size == 0


def test_statfs_returns_capacity(fs):
    tsize, bsize, blocks, bfree, bavail = fs.statfs()
    assert blocks > 0 and bfree <= blocks and tsize >= bsize


def test_symlink_listing_and_removal(fs):
    fs.symlink("/ln", "target/path")
    assert fs.readlink("/ln") == "target/path"
    fs.remove("/ln")
    assert not fs.exists("/ln")
