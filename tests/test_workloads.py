"""Workload generators: Andrew phases and the OO7 database/traversals."""

import pytest

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.thor.client import ThorClient
from repro.thor.server import ThorServer, ThorServerConfig
from repro.thor.service import THOR_SERVICE
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.oo7 import OO7Benchmark, OO7Config, OO7Database

SMALL_ANDREW = AndrewConfig(copies=1)


def nfs_std_client():
    return NfsClient(
        UnreplicatedDeployment.build(NFS_SERVICE, LinuxExt2Backend).client)


def test_andrew_all_phases_run_on_nfs_std():
    fs = nfs_std_client()
    result = AndrewBenchmark(fs, SMALL_ANDREW).run()
    assert set(result.phase_seconds) == {1, 2, 3, 4, 5}
    assert all(t >= 0 for t in result.phase_seconds.values())
    assert result.ops_issued > 0
    # The tree exists: every copy has its compiled output.
    assert fs.exists("/andrew0/a.out")
    assert fs.exists("/andrew0/cmds/cmds0.o")


def test_andrew_runs_on_basefs_and_produces_same_tree():
    config = BftConfig(n=4, checkpoint_interval=16)
    fs = NfsClient(ReplicatedDeployment.build(
        NFS_SERVICE, [LinuxExt2Backend] * 4,
        spec=AbstractSpecConfig(array_size=256), config=config,
        base_config=BaseServiceConfig(branching=8)).client)
    AndrewBenchmark(fs, SMALL_ANDREW).run()
    std_fs = nfs_std_client()
    AndrewBenchmark(std_fs, SMALL_ANDREW).run()
    assert fs.read_file("/andrew0/cmds/cmds0.c") == \
        std_fs.read_file("/andrew0/cmds/cmds0.c")
    assert sorted(fs.listdir("/andrew0")) == sorted(std_fs.listdir("/andrew0"))


def test_andrew_scaling_copies():
    fs = nfs_std_client()
    AndrewBenchmark(fs, AndrewConfig(copies=3)).run()
    for copy in range(3):
        assert fs.exists(f"/andrew{copy}/a.out")


def test_oo7_database_generation_deterministic():
    db1 = OO7Database(OO7Config.tiny())
    db2 = OO7Database(OO7Config.tiny())
    assert db1.num_pages == db2.num_pages
    assert [p.encode() for p in db1.pages] == [p.encode() for p in db2.pages]
    assert db1.total_bytes > 0


def test_oo7_shape_matches_config():
    config = OO7Config.tiny()
    db = OO7Database(config)
    assert len(db.composite_roots) == config.num_composites
    for orefs in db.composite_atomics.values():
        assert len(orefs) == config.atomic_per_composite


def test_oo7_traversals_on_thor_std():
    config = OO7Config.tiny()
    db = OO7Database(config)
    std = UnreplicatedDeployment.build(
        THOR_SERVICE, db_loader=db.load_into,
        server_config=ThorServerConfig(cache_pages=64, mob_bytes=1 << 20))
    client = ThorClient(std.client, "bench")
    client.start_session()
    bench = OO7Benchmark(db, client)

    t1 = bench.t1()
    assert t1.atomic_visits > 0
    assert t1.fetches > 0
    client.drop_caches()
    t6 = bench.t6()
    assert 0 < t6.atomic_visits < t1.atomic_visits
    client.drop_caches()
    t2a = bench.t2a()
    assert 0 < t2a.updates < t2a.atomic_visits or t2a.updates == \
        len({r for r in db.composite_roots.values()})
    client.drop_caches()
    t2b = bench.t2b()
    assert t2b.updates == t2b.atomic_visits
    assert std.backend.commits == 4


def test_oo7_t1_visits_full_graphs():
    config = OO7Config.tiny()
    db = OO7Database(config)
    client = ThorClient(UnreplicatedDeployment.build(
        THOR_SERVICE, db_loader=db.load_into).client, "bench")
    client.start_session()
    t1 = OO7Benchmark(db, client).t1()
    distinct_roots = set()
    rng_roots = set(db.composite_roots.values())
    # T1 visits every atomic part of every composite reachable from the
    # assembly tree; with tiny config every composite is referenced.
    assert t1.atomic_visits <= (config.num_composites
                                * config.atomic_per_composite)
    assert t1.atomic_visits >= config.atomic_per_composite


def test_oo7_on_base_thor():
    config = OO7Config.tiny()
    db = OO7Database(config)
    base = ReplicatedDeployment.build(
        THOR_SERVICE, num_pages=db.num_pages + 4, db_loader=db.load_into,
        server_config=ThorServerConfig(cache_pages=32, mob_bytes=1 << 20),
        config=BftConfig(n=4, checkpoint_interval=32),
        base_config=BaseServiceConfig(branching=16))
    client = ThorClient(base.client, "bench")
    client.start_session()
    bench = OO7Benchmark(db, client)
    t1 = bench.t1()
    assert t1.atomic_visits > 0
    client.drop_caches()
    t2a = bench.t2a()
    assert t2a.updates > 0
    # All replicas executed the same commits.
    commits = {r.state.upcalls.server.commits for r in base.replicas}
    assert commits == {2}
