"""Every call the ledger makes into the product's builders.

The ledger drives three deployments; each is built here and nowhere
else, through the builder spellings ROADMAP item 2(a) keeps
(``harness.cluster.build_cluster`` for the raw BFT key-value group,
``ReplicatedDeployment.build`` / ``UnreplicatedDeployment.build`` for
services).  A later rename of a builder is a one-file benchmark issue.

``PARAMS`` is the deployment configuration as plain data; the
workloads hash it into their input fingerprints, so a changed knob
shows as "inputs changed" instead of as a silent performance delta.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.base.library import BaseServiceConfig
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness import costs as C
from repro.harness.cluster import Cluster, build_cluster
from repro.nfs.backends import ALL_BACKENDS, LinuxExt2Backend
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.service import SQL_SERVICE

PARAMS: Dict[str, Dict[str, Any]] = {
    "kv": {
        "state": "InMemoryStateManager", "slots": 64,
        "bft": {"n": 4, "batch_max": 8, "checkpoint_interval": 16},
        "network": "lan_network(seed)", "costs": "PROTOCOL_COSTS",
    },
    "basefs": {
        "backends": [cls.vendor for cls in ALL_BACKENDS],
        "bft": {"n": 4, "checkpoint_interval": 64,
                "view_change_timeout": 0.15, "client_retry_timeout": 0.1,
                "reboot_delay": 0.45},
        "spec_array_size": 4096, "branching": 64,
        "per_object_check_cost": C.PER_OBJECT_CHECK_COST,
        "checkpoint_cost": C.CHECKPOINT_COST,
        "network": "lan_network(seed)", "costs": "PROTOCOL_COSTS",
        "baseline": "linux-ext2",
    },
    "sql": {
        "engines": ["btree", "hash", "btree", "hash"], "array_size": 2048,
        "bft": {"n": 4, "view_change_timeout": 0.15,
                "client_retry_timeout": 0.1, "reboot_delay": 0.5},
        "network": "lan_network(seed)", "costs": "PROTOCOL_COSTS",
    },
}

_SQL_ENGINES = {"btree": BTreeStoreEngine, "hash": HashStoreEngine}


def kv_group(seed: int) -> Cluster:
    """The raw f=1 BFT group over the reference key-value state machine."""
    p = PARAMS["kv"]
    return build_cluster(lambda i: InMemoryStateManager(size=p["slots"]),
                         config=BftConfig(**p["bft"]),
                         network_config=C.lan_network(seed),
                         costs=C.PROTOCOL_COSTS, seed=seed)


def kv_client(cluster: Cluster, name: str) -> BftClient:
    """One protocol client charged the same crypto costs as the replicas."""
    return cluster.add_client(name, costs=C.PROTOCOL_COSTS).client


def basefs(seed: int) -> ReplicatedDeployment:
    """BASEFS over four *different* vendor backends (the Table V set-up)."""
    p = PARAMS["basefs"]
    return ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS), config=BftConfig(**p["bft"]),
        base_config=BaseServiceConfig(
            branching=p["branching"],
            per_object_check_cost=p["per_object_check_cost"],
            checkpoint_cost=p["checkpoint_cost"]),
        network_config=C.lan_network(seed),
        replica_costs=C.replica_costs(), client_id="nfs-client", seed=seed,
        spec=AbstractSpecConfig(array_size=p["spec_array_size"]),
        profiles=[C.vendor_profile(cls.vendor) for cls in ALL_BACKENDS])


def nfs_std(seed: int) -> UnreplicatedDeployment:
    """NFS-std: one unreplicated Linux/Ext2 server, the paper's baseline."""
    return UnreplicatedDeployment.build(
        NFS_SERVICE, LinuxExt2Backend, network_config=C.lan_network(seed),
        seed=seed, profile=C.vendor_profile(LinuxExt2Backend.vendor))


def sql_group(seed: int) -> ReplicatedDeployment:
    """The relational service over two engine kinds, two replicas each."""
    p = PARAMS["sql"]
    return ReplicatedDeployment.build(
        SQL_SERVICE, [_SQL_ENGINES[name] for name in p["engines"]],
        config=BftConfig(**p["bft"]), network_config=C.lan_network(seed),
        replica_costs=C.replica_costs(), seed=seed,
        array_size=p["array_size"])
