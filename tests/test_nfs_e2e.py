"""End-to-end BASEFS: the full stack — NfsClient → BFT → wrappers →
heterogeneous backends — plus the NFS-std baseline path."""

import pytest

from repro.base.library import BaseServiceConfig
from repro.base.nondet import ClockValue
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import ALL_BACKENDS, LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.protocol import NfsError, NfsProc, NfsStatus
from repro.nfs.service import NFS_SERVICE
from repro.encoding.canonical import canonical, decanonical
from repro.nfs.spec import ROOT_OID, AbstractSpecConfig
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment

SPEC = AbstractSpecConfig(array_size=128)


def small_config(**kw):
    defaults = dict(n=4, checkpoint_interval=8, view_change_timeout=2.0,
                    client_retry_timeout=1.0)
    defaults.update(kw)
    return BftConfig(**defaults)


def basefs_over(backends):
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, backends, spec=SPEC, config=small_config(),
        base_config=BaseServiceConfig(branching=8))
    return basefs.cluster, NfsClient(basefs.client)


@pytest.fixture
def homogeneous():
    return basefs_over([LinuxExt2Backend] * 4)


@pytest.fixture
def heterogeneous():
    return basefs_over(list(ALL_BACKENDS))


def exercise(fs: NfsClient):
    fs.mkdir("/proj")
    fs.mkdir("/proj/src")
    fs.write_file("/proj/src/main.c", b"int main() { return 0; }")
    fs.write_file("/proj/README", b"docs " * 100)
    fs.symlink("/proj/latest", "src/main.c")
    assert fs.read_file("/proj/src/main.c") == b"int main() { return 0; }"
    # NFS-std returns the vendor's concrete order; BASEFS sorts (that is
    # part of the abstract spec).  Compare order-insensitively here.
    assert sorted(fs.listdir("/proj")) == ["README", "latest", "src"]
    assert fs.readlink("/proj/latest") == "src/main.c"
    fs.rename("/proj/README", "/proj/README.md")
    assert fs.exists("/proj/README.md")
    assert not fs.exists("/proj/README")
    fs.remove("/proj/src/main.c")
    fs.rmdir("/proj/src")


def test_homogeneous_basefs_full_workload(homogeneous):
    cluster, fs = homogeneous
    exercise(fs)
    stat = fs.getattr("/proj")
    assert stat.fileid > 0


def test_heterogeneous_basefs_full_workload(heterogeneous):
    """Four different operating systems, one replicated file service."""
    cluster, fs = heterogeneous
    exercise(fs)
    # The replicas' *abstract* checkpoints agreed (stable advanced).
    cluster.run(2.0)
    assert max(r.last_stable for r in cluster.replicas) >= 8


def test_nfs_std_baseline_same_workload():
    std = UnreplicatedDeployment.build(NFS_SERVICE, LinuxExt2Backend)
    fs = NfsClient(std.client)
    exercise(fs)
    assert std.backend.ops_served > 0


def test_heterogeneous_with_one_crashed_replica(heterogeneous):
    cluster, fs = heterogeneous
    fs.mkdir("/d")
    cluster.replicas[3].crash()
    fs.write_file("/d/still-works", b"yes")
    assert fs.read_file("/d/still-works") == b"yes"


def test_heterogeneous_recovery_mid_workload(heterogeneous):
    cluster, fs = heterogeneous
    fs.mkdir("/work")
    for i in range(6):
        fs.write_file(f"/work/f{i}", b"payload %d" % i)
    cluster.run(1.0)
    victim = cluster.replicas[1]
    victim.config.reboot_delay = 0.5
    victim.recovery.start_recovery()
    for i in range(6, 10):
        fs.write_file(f"/work/f{i}", b"payload %d" % i)
    cluster.run(30.0)
    assert not victim.recovery.recovering
    # The recovered Solaris replica serves the same abstract state.
    roots = {r.state.tree.root_digest for r in cluster.replicas
             if not r.transfer.active}
    cluster.run(5.0)
    assert victim.state.tree.root_digest == \
        cluster.replicas[0].state.tree.root_digest


def test_attribute_cache_reduces_calls(homogeneous):
    cluster, fs = homogeneous
    fs.write_file("/cached", b"x")
    fs.getattr("/cached")
    calls_before = fs.calls_issued
    for _ in range(5):
        fs.getattr("/cached")
    assert fs.calls_issued == calls_before  # all served from cache
    assert fs.cache_hits >= 5


def test_data_cache_revalidates_by_mtime(homogeneous):
    cluster, fs = homogeneous
    fs.write_file("/data", b"version1")
    assert fs.read_file("/data") == b"version1"
    calls_before = fs.calls_issued
    assert fs.read_file("/data") == b"version1"   # cache hit
    assert fs.calls_issued == calls_before
    fs.drop_caches()
    fs.write_file("/data", b"version2")
    assert fs.read_file("/data") == b"version2"


def test_errors_propagate_to_client(homogeneous):
    cluster, fs = homogeneous
    with pytest.raises(NfsError) as err:
        fs.read_file("/does/not/exist")
    assert err.value.status == NfsStatus.NFSERR_NOENT
    fs.mkdir("/dir")
    with pytest.raises(NfsError) as err:
        fs.remove("/dir")
    assert err.value.status == NfsStatus.NFSERR_ISDIR


def test_basefs_and_nfs_std_give_identical_results():
    """Differential test: the replicated service is functionally
    indistinguishable from the implementation it reuses (modulo times)."""
    _cluster, base_fs = basefs_over([LinuxExt2Backend] * 4)
    std_fs = NfsClient(
        UnreplicatedDeployment.build(NFS_SERVICE, LinuxExt2Backend).client)
    for fs in (base_fs, std_fs):
        exercise(fs)
    assert sorted(base_fs.listdir("/proj")) == sorted(std_fs.listdir("/proj"))
    assert base_fs.read_file("/proj/README.md") == \
        std_fs.read_file("/proj/README.md")
    a = base_fs.getattr("/proj/README.md")
    b = std_fs.getattr("/proj/README.md")
    assert (a.ftype, a.mode, a.size) == (b.ftype, b.mode, b.size)


# -- regression: values outside their unsigned fields ---------------------------


def _hostile_calls(fs: NfsClient):
    """A ten-byte file, then every op that takes an unsigned field with
    a negative value or one wider than the field: each must fail with
    NFSERR_IO, and the file must read back whole and unchanged."""
    fs.write_file("/f", b"0123456789")
    fh, call = fs._resolve("/f"), fs.transport.call
    root = fs.transport.root_fh()
    mode = fs.getattr("/f").mode
    for proc, args in [
            (NfsProc.WRITE, (fh, -3, b"ABCDE")),
            (NfsProc.READ, (fh, -2, 4)),
            (NfsProc.READ, (fh, 0, -2)),
            (NfsProc.SETATTR, (fh, (-1, -1, -1, -5, -1, -1))),
            (NfsProc.SETATTR, (fh, (-7, -1, -1, -1, -1, -1))),
            (NfsProc.SETATTR, (fh, (2**40, -1, -1, -1, -1, -1))),
            (NfsProc.SETATTR, (fh, (-1, 2**33, -1, -1, -1, -1))),
            (NfsProc.SETATTR, (fh, (-1, -1, -1, -1, -1, 2**64))),
            (NfsProc.CREATE, (root, "g", (2**32, 0, 0, -1, -1, -1))),
            (NfsProc.MKDIR, (root, "d", (0o755, 0, 2**32, -1, -1, -1))),
            (NfsProc.SYMLINK, (root, "l", "f", (0o777, 2**40, 0, -1, -1, -1)))]:
        with pytest.raises(NfsError) as err:
            call(proc, *args)
        assert err.value.status == NfsStatus.NFSERR_IO
    fs.drop_caches()
    assert fs.listdir("/") == ["f"]
    assert fs.read_file("/f") == b"0123456789"
    assert (fs.getattr("/f").size, fs.getattr("/f").mode) == (10, mode)


def test_basefs_refuses_negative_unsigned_fields(heterogeneous):
    cluster, fs = heterogeneous
    _hostile_calls(fs)
    cluster.run(1.0)
    for replica in cluster.replicas:
        wrapper = replica.state.upcalls
        index = wrapper.rep.fileid_to_index[
            wrapper.backend.find_ino("f")]
        assert wrapper.rep.entry(index).abstract_size == 74
        assert wrapper.rep.bytes_used == 64 + 16 + 1 + 74
        assert b"0123456789" in wrapper.get_obj(index)


@pytest.mark.parametrize("backend_cls", ALL_BACKENDS, ids=lambda c: c.vendor)
def test_nfs_std_refuses_negative_unsigned_fields(backend_cls):
    std = UnreplicatedDeployment.build(NFS_SERVICE, backend_cls)
    _hostile_calls(NfsClient(std.client))


# -- regression: a malformed request to NFS-std ----------------------------------
#
# NFS-std's server caught only NfsError: a request of the wrong arity or
# with ill-typed arguments raised TypeError or AttributeError out of
# ``channel.call``, where BASEFS answers the same bytes with an envelope.


def test_nfs_std_answers_a_malformed_request_as_basefs_does():
    std = UnreplicatedDeployment.build(NFS_SERVICE)
    wrapper = NfsConformanceWrapper(LinuxExt2Backend())
    root = std.client.root_fh()
    mount = object()   # each server's own mount handle

    def replies(*shape):
        """NFS-std's reply to ``shape``, then BASEFS's."""
        def op(fh):
            return canonical(tuple(fh if arg is mount else arg
                                   for arg in shape))
        return (decanonical(std.channel.call(op(root))),
                decanonical(wrapper.execute(op(ROOT_OID), "client",
                                            ClockValue.encode(1.0))))

    malformed = (int(NfsStatus.NFSERR_IO), "malformed request")
    assert replies("getattr") == (malformed, malformed)
    assert replies("write", b"x") == (malformed, malformed)
    assert replies("lookup", 5, "a") == (malformed, malformed)
    assert replies("read", mount, "x", 3) == (malformed, malformed)
    # Three sattr fields are mode, uid and gid, on both servers.
    for status, fattr in replies("setattr", mount, (1, 2, 3)):
        assert (status, fattr[1], fattr[3:5]) == (0, 1, (2, 3))
    assert std.client.call(NfsProc.GETATTR, root)[0][1] == 1


# -- file bytes: one value shared by the replicas, never a shared buffer -------


def test_one_replicas_fault_leaves_the_shared_file_bytes_alone(heterogeneous):
    """A whole-file write leaves the four backends holding one immutable
    value.  Corrupting it on one replica, or writing into its middle,
    replaces that replica's value only: the other three keep their bytes
    and leaf digests, and the victim's recovery check flags both
    objects."""
    cluster, fs = heterogeneous
    fs.mkdir("/proj")
    fs.write_file("/proj/a.c", b"int a;\n" * 40)
    fs.write_file("/proj/b.c", b"int b;\n" * 40)
    cluster.run(1.0)
    wrappers = [replica.state.upcalls for replica in cluster.replicas]

    def inode(wrapper, name):
        backend = wrapper.backend
        return backend._inodes[backend.find_ino("proj", name)]

    def checked_leaves(replica):
        """What the recovery check re-derives from concrete state."""
        replica.state.mark_all_dirty()
        replica.state.refresh_dirty()
        rep = replica.state.upcalls.rep
        return [replica.state.tree.leaf_digest(
                    rep.fileid_to_index[inode(replica.state.upcalls,
                                              name).ino])
                for name in ("a.c", "b.c")]

    values = [inode(w, "a.c").data for w in wrappers]
    assert all(type(value) is bytes for value in values)
    assert all(value is values[0] for value in values)
    before = [checked_leaves(replica) for replica in cluster.replicas]
    assert all(leaves == before[0] for leaves in before)

    victim = wrappers[1]
    victim.backend.corrupt_file_data(inode(victim, "a.c").ino, b"GARBAGE!")
    b_fh = victim.rep.entry(
        victim.rep.fileid_to_index[inode(victim, "b.c").ino]).fh
    victim.backend.write(b_fh, 9, b"XX")

    for index, replica in enumerate(cluster.replicas):
        wrapper = wrappers[index]
        after = checked_leaves(replica)
        if wrapper is victim:
            assert inode(wrapper, "a.c").data.startswith(b"GARBAGE!")
            assert inode(wrapper, "b.c").data[9:11] == b"XX"
            assert after[0] != before[index][0]
            assert after[1] != before[index][1]
        else:
            assert inode(wrapper, "a.c").data == b"int a;\n" * 40
            assert inode(wrapper, "b.c").data == b"int b;\n" * 40
            assert after == before[index]
