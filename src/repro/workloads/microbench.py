"""Protocol micro-benchmarks: null-op latency and simple throughput.

Used by the ablation benches to isolate the contribution of individual
BFT/BASE mechanisms (batching, the read-only optimization, incremental
checkpoints) the way Castro & Liskov's micro-benchmarks do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import Cluster, build_cluster


@dataclass
class MicroResult:
    label: str
    operations: int
    elapsed: float
    messages: int
    bytes_sent: int

    @property
    def latency(self) -> float:
        return self.elapsed / self.operations if self.operations else 0.0

    @property
    def throughput(self) -> float:
        return self.operations / self.elapsed if self.elapsed else 0.0


def build_kv_cluster(config: Optional[BftConfig] = None,
                     network_config=None, costs=None) -> Cluster:
    from repro.bft.costs import ZERO_COSTS
    return build_cluster(lambda i: InMemoryStateManager(size=64),
                         config=config or BftConfig(),
                         network_config=network_config,
                         costs=costs or ZERO_COSTS)


def sequential_ops(cluster: Cluster, count: int, label: str,
                   read_only: bool = False) -> MicroResult:
    """One client, back-to-back operations: measures latency."""
    client = cluster.add_client(f"micro-{label}")
    op = (InMemoryStateManager.op_get(0) if read_only
          else InMemoryStateManager.op_put(0, b"x"))
    start_time = cluster.scheduler.now
    start_msgs = cluster.network.messages_sent
    start_bytes = cluster.network.bytes_sent
    for _ in range(count):
        client.call(op, read_only=read_only)
    return MicroResult(label, count, cluster.scheduler.now - start_time,
                       cluster.network.messages_sent - start_msgs,
                       cluster.network.bytes_sent - start_bytes)


def concurrent_ops(cluster: Cluster, clients: int, per_client: int,
                   label: str) -> MicroResult:
    """Many clients firing simultaneously: measures batching/throughput."""
    syncs = [cluster.add_client(f"tp-{label}-{i}") for i in range(clients)]
    remaining = {i: per_client for i in range(clients)}
    start_time = cluster.scheduler.now
    start_msgs = cluster.network.messages_sent
    start_bytes = cluster.network.bytes_sent

    def fire(i: int):
        if remaining[i] == 0:
            return
        remaining[i] -= 1
        op = InMemoryStateManager.op_put(i % 16, b"tp")
        syncs[i].client.invoke(op, lambda res, i=i: fire(i))

    for i in range(clients):
        fire(i)
    cluster.run_until(lambda: all(v == 0 for v in remaining.values())
                      and not any(s.client.busy for s in syncs))
    total = clients * per_client
    return MicroResult(label, total, cluster.scheduler.now - start_time,
                       cluster.network.messages_sent - start_msgs,
                       cluster.network.bytes_sent - start_bytes)
