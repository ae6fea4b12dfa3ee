"""Simulation determinism: identical seeds yield identical runs.

This is the property that makes the whole methodology testable — every
Byzantine schedule in this suite is reproducible.
"""

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import ALL_BACKENDS
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment
from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put


def run_kv(seed):
    cluster = make_kv_cluster(seed=seed)
    client = cluster.add_client("client0")
    for i in range(10):
        client.call(put(i % 4, b"d%d" % i))
    cluster.run(1.0)
    return (cluster.scheduler.now,
            cluster.network.messages_sent,
            cluster.network.bytes_sent,
            tuple(tuple(r.state.values) for r in cluster.replicas))


def test_same_seed_same_everything():
    assert run_kv(13) == run_kv(13)


def test_different_seed_different_timing_same_state():
    a = run_kv(13)
    b = run_kv(14)
    assert a[0] != b[0]          # jitter differs
    assert a[3] == b[3]          # but the replicated state is identical


def run_basefs(seed):
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        spec=AbstractSpecConfig(array_size=64),
        config=BftConfig(n=4, checkpoint_interval=8),
        base_config=BaseServiceConfig(branching=8), seed=seed)
    cluster = basefs.cluster
    fs = NfsClient(basefs.client)
    fs.mkdir("/d")
    for i in range(5):
        fs.write_file(f"/d/f{i}", b"content %d" % i)
    cluster.run(1.0)
    roots = tuple(r.state.tree.root_digest for r in cluster.replicas)
    return cluster.scheduler.now, roots


def test_heterogeneous_basefs_deterministic():
    t1, roots1 = run_basefs(99)
    t2, roots2 = run_basefs(99)
    assert t1 == t2
    assert roots1 == roots2
    # And the four heterogeneous replicas agree within each run.
    assert len(set(roots1)) == 1
