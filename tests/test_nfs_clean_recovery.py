"""§3.1.4's improvement: recovery onto a clean (second-disk) file system.

The in-place repair can only fix objects the digest check can see; a
backend whose *internal data structures* rot (not just file contents) is
unfixable in place.  Clean recovery rebuilds everything from the abstract
state on a fresh backend — and clears leaks by construction.
"""

import pytest

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import LinuxExt2Backend, SolarisUfsBackend
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.service.deploy import ReplicatedDeployment

SPEC = AbstractSpecConfig(array_size=128)


def build(clean: bool):
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, [LinuxExt2Backend] * 4, spec=SPEC,
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.3,
                         view_change_timeout=2.0, client_retry_timeout=1.0),
        base_config=BaseServiceConfig(branching=8))
    cluster = basefs.cluster
    if clean:
        for replica in cluster.replicas:
            wrapper = replica.state.upcalls
            wrapper.clean_recovery_factory = \
                lambda w=wrapper: LinuxExt2Backend(clock=w.timestamps.clock)
    return cluster, NfsClient(basefs.client)


def seed(cluster, fs, count=10):
    fs.mkdir("/dir")
    for i in range(count):
        fs.write_file(f"/dir/f{i}", b"content %d" % i)
    fs.symlink("/link", "dir/f0")
    cluster.run(1.0)


def test_clean_recovery_rebuilds_entire_state():
    cluster, fs = build(clean=True)
    seed(cluster, fs)
    victim = cluster.replicas[2]
    old_backend = victim.state.upcalls.backend
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    new_backend = victim.state.upcalls.backend
    assert new_backend is not old_backend
    rec = victim.recovery.records[-1]
    # Everything non-free was fetched (whole-state rebuild).
    non_free = sum(1 for e in victim.state.upcalls.rep.entries
                   if not e.is_free)
    assert rec.objects_fetched >= non_free
    # The rebuilt concrete state serves correctly.
    cluster.run(2.0)
    fs.drop_caches()
    assert fs.read_file("/dir/f3") == b"content 3"
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1


def test_clean_recovery_fixes_unrepairable_internal_corruption():
    """Corrupt the backend's *inode table* (not file data): in-place
    repair cannot express the fix through the NFS interface, but a clean
    rebuild does not care."""
    cluster, fs = build(clean=True)
    seed(cluster, fs)
    victim = cluster.replicas[1]
    backend = victim.state.upcalls.backend
    # Internal data-structure rot: a directory entry pointing nowhere.
    root_inode = backend._inodes[2]
    root_inode.children["ghost-entry"] = 99999
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    rebuilt = victim.state.upcalls.backend
    assert "ghost-entry" not in rebuilt._inodes[2].children
    cluster.run(2.0)
    assert victim.state.tree.root_digest == \
        cluster.replicas[0].state.tree.root_digest


def test_clean_recovery_clears_resource_usage():
    """The fresh backend's inode table holds exactly the live objects —
    no leaked allocations survive (the rejuvenation argument)."""
    cluster, fs = build(clean=True)
    seed(cluster, fs, count=6)
    for i in range(6):
        fs.remove(f"/dir/f{i}")       # churn: create then delete
        fs.write_file(f"/dir/g{i}", b"x")
    cluster.run(1.0)
    victim = cluster.replicas[3]
    victim.recovery.start_recovery()
    cluster.run(30.0)
    rebuilt = victim.state.upcalls.backend
    live_objects = sum(1 for e in victim.state.upcalls.rep.entries
                       if not e.is_free)
    assert rebuilt.inode_count() == live_objects
    assert rebuilt._next_ino <= live_objects + 3  # no allocation churn


def test_clean_recovery_service_equivalent_to_in_place():
    """Both recovery flavours serve the same observable file system.

    (Root digests differ *between* runs because agreed timestamps depend
    on each run's simulated clock — within each run all replicas agree.)
    """
    results = {}
    for clean in (False, True):
        cluster, fs = build(clean=clean)
        seed(cluster, fs)
        victim = cluster.replicas[2]
        victim.recovery.start_recovery()
        cluster.run(30.0)
        assert not victim.recovery.recovering
        fs.write_file("/post", b"after recovery")
        cluster.run(2.0)
        fs.drop_caches()
        results[clean] = (
            tuple(sorted(fs.listdir("/"))),
            tuple(sorted(fs.listdir("/dir"))),
            fs.read_file("/dir/f5"),
            fs.read_file("/post"),
            fs.readlink("/link"),
        )
        roots = {r.state.tree.root_digest for r in cluster.replicas}
        assert len(roots) == 1
    assert results[False] == results[True]
