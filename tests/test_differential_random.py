"""Differential random-operation testing.

The strongest correctness statement the methodology supports: for ANY
operation sequence, the replicated service built from *different*
implementations is observably equivalent to the unreplicated
implementation it reuses (modulo concrete details the abstract spec pins
down, like readdir order).  Hypothesis generates the sequences.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import ALL_BACKENDS, LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.protocol import NfsError
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.service import SQL_SERVICE
from repro.sql.engine import SqlEngineError

# -- NFS ---------------------------------------------------------------------

NAMES = ["a", "b", "sub/x", "sub/y"]

nfs_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), st.sampled_from(NAMES),
              st.binary(min_size=1, max_size=200)),
    st.tuples(st.just("read"), st.sampled_from(NAMES)),
    st.tuples(st.just("remove"), st.sampled_from(NAMES)),
    st.tuples(st.just("stat"), st.sampled_from(NAMES)),
    st.tuples(st.just("list"), st.sampled_from(["", "sub"])),
    st.tuples(st.just("rename"), st.sampled_from(NAMES),
              st.sampled_from(NAMES)),
), min_size=1, max_size=12)


def apply_nfs(fs: NfsClient, op) -> tuple:
    """Run one op; normalize the outcome for comparison."""
    kind = op[0]
    try:
        if kind == "write":
            fs.write_file("/" + op[1], op[2])
            return ("ok",)
        if kind == "read":
            return ("data", fs.read_file("/" + op[1]))
        if kind == "remove":
            fs.remove("/" + op[1])
            return ("ok",)
        if kind == "stat":
            attr = fs.getattr("/" + op[1])
            return ("attr", int(attr.ftype), attr.size, attr.mode)
        if kind == "list":
            return ("names", tuple(sorted(fs.listdir("/" + op[1]))))
        if kind == "rename":
            fs.rename("/" + op[1], "/" + op[2])
            return ("ok",)
    except NfsError as err:
        return ("err", int(err.status))
    raise AssertionError(kind)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(nfs_ops)
def test_heterogeneous_basefs_equals_nfs_std(ops):
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        spec=AbstractSpecConfig(array_size=128),
        config=BftConfig(n=4, checkpoint_interval=8),
        base_config=BaseServiceConfig(branching=8))
    cluster = basefs.cluster
    base_fs = NfsClient(basefs.client, use_caches=False)
    std_fs = NfsClient(
        UnreplicatedDeployment.build(NFS_SERVICE, LinuxExt2Backend).client,
        use_caches=False)
    for fs in (base_fs, std_fs):
        fs.mkdir("/sub")
    for op in ops:
        base_result = apply_nfs(base_fs, op)
        std_result = apply_nfs(std_fs, op)
        assert base_result == std_result, (op, base_result, std_result)
    # And the four heterogeneous replicas never diverged.
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1


# -- SQL ----------------------------------------------------------------------

KEYS = [1, 2, 3, "k"]

sql_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(KEYS),
              st.text(max_size=8)),
    st.tuples(st.just("update"), st.sampled_from(KEYS),
              st.text(max_size=8)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(st.just("select"), st.sampled_from(KEYS)),
    st.tuples(st.just("scan")),
), min_size=1, max_size=15)


def apply_sql(db, op) -> tuple:
    kind = op[0]
    try:
        if kind == "insert":
            db.insert("t", (op[1], op[2]))
            return ("ok",)
        if kind == "update":
            db.update("t", op[1], (op[1], op[2]))
            return ("ok",)
        if kind == "delete":
            db.delete("t", op[1])
            return ("ok",)
        if kind == "select":
            return ("row", db.select("t", op[1]))
        if kind == "scan":
            return ("rows", db.scan("t"))
    except SqlEngineError as err:
        return ("err", err.code)
    raise AssertionError(kind)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sql_ops)
def test_nversion_sql_equals_single_engine(ops):
    group = ReplicatedDeployment.build(
        SQL_SERVICE, [HashStoreEngine, BTreeStoreEngine, BTreeStoreEngine,
                      HashStoreEngine],
        config=BftConfig(n=4, checkpoint_interval=8), array_size=64)
    cluster, replicated = group.cluster, group.client
    direct = UnreplicatedDeployment.build(SQL_SERVICE,
                                          BTreeStoreEngine).client
    for db in (replicated, direct):
        db.create_table("t", ("k", "v"), "k")
    for op in ops:
        assert apply_sql(replicated, op) == apply_sql(direct, op), op
    cluster.run(1.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
