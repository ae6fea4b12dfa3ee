"""Build a simulated replication group: scheduler, network, replicas, clients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bft.client import BftClient, SyncClient
from repro.bft.config import BftConfig
from repro.bft.costs import CostModel, ZERO_COSTS
from repro.bft.replica import Replica
from repro.bft.statemachine import StateManager
from repro.crypto.keys import KeyRegistry
from repro.sim.network import Network, NetworkConfig
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer


@dataclass
class Cluster:
    """A wired-up replication group plus its simulation plumbing."""

    scheduler: Scheduler
    network: Network
    config: BftConfig
    registry: KeyRegistry
    tracer: Tracer
    replicas: List[Replica]
    clients: Dict[str, BftClient] = field(default_factory=dict)

    @property
    def metrics(self):
        """The shared metrics registry (counters/histograms)."""
        return self.tracer.metrics

    def phase_report(self) -> str:
        """Render the per-phase latency histograms as a table."""
        from repro.harness.report import phase_breakdown_table
        return phase_breakdown_table(self.tracer.metrics)

    @property
    def primary(self) -> Replica:
        view = max(r.view for r in self.replicas)
        primary_id = self.config.primary_of(view)
        return next(r for r in self.replicas if r.node_id == primary_id)

    def add_client(self, client_id: str,
                   costs: CostModel = ZERO_COSTS) -> SyncClient:
        client = BftClient(client_id, self.network, self.config,
                           self.registry, tracer=self.tracer, costs=costs)
        self.clients[client_id] = client
        return SyncClient(client)

    def run(self, seconds: float) -> None:
        """Advance simulated time (processing everything due in between)."""
        self.scheduler.run_until(self.scheduler.now + seconds)

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 5_000_000) -> bool:
        return self.scheduler.run_until_idle_or(predicate, max_events)


def build_cluster(make_state: Callable[[int], StateManager],
                  config: Optional[BftConfig] = None,
                  network_config: Optional[NetworkConfig] = None,
                  costs: CostModel = ZERO_COSTS,
                  replica_costs: Optional[List[CostModel]] = None,
                  seed: int = 0,
                  scheduler: Optional[Scheduler] = None,
                  network: Optional[Network] = None) -> Cluster:
    """Construct a replication group.

    ``make_state(i)`` builds the state manager for replica ``i`` — passing
    distinct factories per index is exactly how the heterogeneous (N-version)
    setups are built.

    Passing an existing ``scheduler``/``network`` lets several groups
    share one simulation fabric (the sharded deployments): each group
    keeps its own key registry and tracer, but clocks, links, and event
    ordering are common.  When ``network`` is given it must ride the
    given ``scheduler`` and ``network_config`` is ignored.
    """
    config = config or BftConfig()
    if network is not None and scheduler is None:
        scheduler = network.scheduler
    scheduler = scheduler or Scheduler()
    if network is None:
        network = Network(scheduler, network_config or NetworkConfig(seed=seed))
    elif network.scheduler is not scheduler:
        raise ValueError("network rides a different scheduler")
    registry = KeyRegistry()
    tracer = Tracer()
    replicas = []
    for i, replica_id in enumerate(config.replica_ids):
        cost_model = replica_costs[i] if replica_costs else costs
        replicas.append(Replica(replica_id, network, config, registry,
                                make_state(i), tracer=tracer,
                                costs=cost_model))
    return Cluster(scheduler, network, config, registry, tracer, replicas)
