"""Composable deployments of a registered service.

A service is declared once, as a :class:`ServiceDefinition`: its wrapper
and baseline factories, the build options those factories read (with
their defaults), its client class, and how its state shards.  The
deployments below build any registered service from that declaration:

- :class:`ReplicatedDeployment` — one BASE group (four conformance
  wrappers behind the BFT library) plus its service client;
- :class:`UnreplicatedDeployment` — the paper's unreplicated baseline:
  a scheduler, a network, one request/response server node, and a
  client node;
- :class:`~repro.service.sharding.ShardedDeployment` — N independent
  replicated groups on one simulation fabric behind a deterministic
  shard router (see :mod:`repro.service.sharding`).

``Deployment.build`` is the one way to stand up a registered service;
beneath it, :func:`repro.base.library.build_base_cluster` takes bare
:class:`~repro.base.upcalls.Upcalls` factories and
:func:`repro.harness.cluster.build_cluster` bare state managers.

Clients talk to any deployment through a :class:`Channel` — ``call``
one canonical-encoded op, ``charge`` client CPU, read ``now`` — so each
service defines a single client class that is oblivious to whether it is
driving four replicas, one plain server, or N sharded groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.base.library import BaseServiceConfig, build_base_cluster
from repro.base.upcalls import Upcalls
from repro.bft.client import SyncClient
from repro.bft.config import BftConfig
from repro.bft.costs import CostModel
from repro.harness.cluster import Cluster
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer


class Channel:
    """How a service client reaches its deployment."""

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        raise NotImplementedError

    def charge(self, seconds: float) -> None:
        """Burn client-machine CPU (workload think time)."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        raise NotImplementedError


class ReplicatedChannel(Channel):
    """Rides the BASE invoke path of a replicated deployment."""

    def __init__(self, sync_client: SyncClient):
        self.sync_client = sync_client

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        return self.sync_client.call(op, read_only=read_only)

    def charge(self, seconds: float) -> None:
        self.sync_client.client.charge(seconds)

    @property
    def now(self) -> float:
        return self.sync_client.now


class DirectChannel(Channel):
    """Request/response to an unreplicated server node.

    Drives the scheduler synchronously, exactly like
    :class:`~repro.bft.client.SyncClient` does for the replicated path,
    so elapsed simulated time is comparable.
    """

    def __init__(self, service: str, scheduler: Scheduler, network: Network,
                 server_id: str, client_id: str):
        self.service = service
        self.scheduler = scheduler
        self.server_id = server_id
        self._nonce = 0
        self._box: Dict[int, bytes] = {}
        self._node = Node(client_id, network)
        self._node.on_message = self._on_message  # type: ignore

    def _on_message(self, src, msg) -> None:
        nonce, raw = msg
        self._box[nonce] = raw

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        self._nonce += 1
        nonce = self._nonce
        self._node.send(self.server_id, (nonce, op), size=64 + len(op))
        if not self.scheduler.run_until_idle_or(lambda: nonce in self._box):
            raise TimeoutError(f"{self.service} server never answered")
        return self._box.pop(nonce)

    def charge(self, seconds: float) -> None:
        self._node.charge(seconds)

    @property
    def now(self) -> float:
        return self.scheduler.now


class DirectServiceServer(Node):
    """Unreplicated server node: one handler answers each request."""

    def __init__(self, node_id: str, network: Network,
                 handler: Callable[["DirectServiceServer", str, bytes],
                                   Tuple[bytes, int]]):
        super().__init__(node_id, network)
        self.handler = handler

    def on_message(self, src, msg) -> None:
        nonce, op = msg
        reply, size = self.handler(self, src, op)
        self.send(src, (nonce, reply), size=size)


@dataclass
class WrapperContext:
    """What a service's factories get to build one wrapper or baseline."""

    index: int
    backend_class: Optional[type]
    #: Reads the deployment's simulated clock (zero while still building).
    clock: Callable[[], float]
    #: The service's declared build options: every declared name is
    #: present, holding the caller's value or the declared default.
    options: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DirectService:
    """One unreplicated baseline: the backend object, the request handler
    (returns the reply blob and its wire size), and optional wiring run
    once the server node exists (e.g. routing disk charges to it)."""

    backend: Any
    handler: Callable[[DirectServiceServer, str, bytes], Tuple[bytes, int]]
    wire: Optional[Callable[[DirectServiceServer], None]] = None


def wrapper_as_baseline(wrapper: Upcalls, backend: Any) -> DirectService:
    """A baseline whose server runs the service's own conformance
    wrapper over one backend, with no agreed value (for services whose
    wrapped implementations speak no wire protocol of their own)."""

    def handler(node: DirectServiceServer, src: str,
                op: bytes) -> Tuple[bytes, int]:
        raw = wrapper.execute(op, src, b"")
        return raw, 64 + len(raw)

    return DirectService(backend=backend, handler=handler)


class Broadcast:
    """Shard-key sentinel: the op must reach *every* shard (e.g. Thor
    session management); replies must agree and one is returned."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Broadcast"


BROADCAST = Broadcast()


@dataclass(frozen=True)
class LearnedKey:
    """A key routable only through a pin learned from an earlier reply.

    Service-minted identifiers (NFS file handles) are allocated
    independently by each shard, so identical bytes can name different
    objects in different shards — stable-hash fallback would route them
    arbitrarily.  Wrapping the key forces the router to consult its pin
    table and fail deterministically when no pin exists.
    """

    value: Any


@dataclass
class ShardKeySpec:
    """How a service's abstract state partitions across shards.

    ``extract`` maps a decoded wire-op tuple to its shard key(s):

    - a single hashable key — route to ``stable_hash(key) % shards``
      (or to a pinned shard, see ``learn``);
    - ``None`` — no partitionable key; route to the home shard 0
      (registry-style ops like SQL ``tables``);
    - :data:`BROADCAST` — deliver to every shard (session management);
    - a ``list`` of keys — the op touches several keys; if they resolve
      to different shards the router refuses with
      :class:`~repro.service.sharding.CrossShardOp` (callers use the
      two-phase ``cross_shard_call`` instead).

    ``learn`` (optional) maps (decoded op, decoded reply) to keys that
    are *pinned* to the shard that answered — how NFS binds the file
    handles a shard mints to that shard's subtree.
    """

    extract: Callable[[tuple], Any]
    learn: Optional[Callable[[tuple, tuple], Iterable[Any]]] = None
    #: Human-readable description of the partitioning axis (docs/UI).
    axis: str = ""


#: Default of a build option the caller has to supply.
REQUIRED: Any = object()


@dataclass
class ServiceDefinition:
    """Declarative registration of one service with the kernel."""

    name: str
    #: Build one conformance wrapper for replica ``ctx.index``.
    make_wrapper: Callable[[WrapperContext], Upcalls]
    #: Build the service's client/transport over a channel.
    make_client: Callable[[Channel], Any]
    #: Build the unreplicated baseline.
    make_direct: Optional[Callable[[WrapperContext], DirectService]] = None
    #: The build options ``make_wrapper`` reads from ``ctx.options``,
    #: name -> default (:data:`REQUIRED` for none).  A default is
    #: written here and nowhere else.
    wrapper_options: Mapping[str, Any] = field(default_factory=dict)
    #: The same for ``make_direct``.
    direct_options: Mapping[str, Any] = field(default_factory=dict)
    #: Client class for the baseline, when it differs (e.g. NFS resolves
    #: the mount handle differently).
    make_direct_client: Optional[Callable[[Channel], Any]] = None
    #: Per-replica backend classes when the caller passes none.
    default_backends: Tuple[Optional[type], ...] = (None,) * 4
    #: Default partition-tree branching for this service's state size.
    branching: int = 16
    client_id: str = ""
    direct_client_id: str = ""
    #: Run once per replica after the cluster is built (e.g. charge hooks).
    wire_replica: Optional[Callable[[Any, Upcalls], None]] = None
    #: How ops map onto shards of a :class:`ShardedDeployment` (None:
    #: the service cannot be sharded).
    shard_key: Optional[ShardKeySpec] = None

    def __post_init__(self) -> None:
        self.client_id = self.client_id or f"{self.name}-client"
        self.direct_client_id = (self.direct_client_id
                                 or f"{self.name}-client-node")

    def resolve_options(self, declared: Mapping[str, Any],
                        given: Mapping[str, Any]) -> Dict[str, Any]:
        """Lay the caller's build options over the ``declared`` defaults;
        an undeclared name or a required one left out is a ``TypeError``."""
        options = {**declared, **given}
        unknown = sorted(set(given) - set(declared))
        missing = sorted(name for name, value in options.items()
                         if value is REQUIRED)
        if unknown or missing:
            raise TypeError(
                f"{self.name}: build options unknown {unknown}, missing "
                f"{missing} (declared: {sorted(declared)})")
        return options


# -- deployments -------------------------------------------------------------------


@dataclass
class Deployment:
    """A built service stack: the channel ops ride, the service-level
    client facade, and the simulation plumbing they share."""

    definition: ServiceDefinition
    scheduler: Scheduler
    network: Network
    channel: Channel
    client: Any

    @property
    def metrics(self):
        """The deployment's aggregated metrics registry."""
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        """Advance simulated time (processing everything due in between)."""
        self.scheduler.run_until(self.scheduler.now + seconds)


@dataclass
class ReplicatedDeployment(Deployment):
    """One BASE group: four (or n) conformance wrappers behind BFT."""

    cluster: Cluster = None  # type: ignore[assignment]
    sync: SyncClient = None  # type: ignore[assignment]

    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def replicas(self):
        return self.cluster.replicas

    @classmethod
    def build(cls, definition: ServiceDefinition,
              backend_classes: Optional[Sequence[Optional[type]]] = None,
              *,
              config: Optional[BftConfig] = None,
              base_config: Optional[BaseServiceConfig] = None,
              network_config: Optional[NetworkConfig] = None,
              replica_costs: Optional[List[CostModel]] = None,
              client_id: Optional[str] = None,
              seed: int = 0,
              scheduler: Optional[Scheduler] = None,
              network: Optional[Network] = None,
              tracer: Optional[Tracer] = None,
              **options: Any) -> "ReplicatedDeployment":
        """Build a BASE-replicated deployment of one registered service.

        ``backend_classes`` has one entry per replica — all the same
        class for homogeneous replication, one per vendor for the
        opportunistic N-version setups.  Extra keyword arguments are the
        service's declared ``wrapper_options``; they reach the wrapper
        factory through :class:`WrapperContext`.

        Pass ``scheduler``/``network`` to mount the group on an existing
        simulation fabric (how :class:`ShardedDeployment` composes N
        groups); pass ``config`` with distinct ``replica_ids`` so the
        co-tenant groups' node ids cannot collide.
        """
        options = definition.resolve_options(definition.wrapper_options,
                                             options)
        backends = list(definition.default_backends
                        if backend_classes is None else backend_classes)
        if backend_classes is None and config is not None \
                and config.n != len(backends):
            backends = backends[:1] * config.n
        base_config = base_config or BaseServiceConfig(
            branching=definition.branching)
        if scheduler is None:
            scheduler = network.scheduler if network is not None \
                else Scheduler()

        # One factory per backend: a backend list that disagrees with
        # ``config.n`` is refused by the library's own length check.
        factories = [partial(definition.make_wrapper, WrapperContext(
            index=i, backend_class=backend, clock=lambda: scheduler.now,
            options=options)) for i, backend in enumerate(backends)]
        cluster = build_base_cluster(
            factories, config=config,
            base_config=base_config, network_config=network_config,
            replica_costs=replica_costs, seed=seed,
            scheduler=scheduler, network=network, tracer=tracer)
        if definition.wire_replica is not None:
            for replica in cluster.replicas:
                definition.wire_replica(replica, replica.state.upcalls)
        sync = cluster.add_client(client_id or definition.client_id)
        channel = ReplicatedChannel(sync)
        return cls(definition=definition, scheduler=cluster.scheduler,
                   network=cluster.network, channel=channel,
                   client=definition.make_client(channel),
                   cluster=cluster, sync=sync)


@dataclass
class UnreplicatedDeployment(Deployment):
    """The unreplicated baseline: one backend behind a plain server node."""

    backend: Any = None
    server: DirectServiceServer = None  # type: ignore[assignment]

    @property
    def metrics(self):
        raise AttributeError("the unreplicated baseline records no metrics")

    @classmethod
    def build(cls, definition: ServiceDefinition,
              backend_class: Optional[type] = None,
              *,
              network_config: Optional[NetworkConfig] = None,
              seed: int = 0,
              **options: Any) -> "UnreplicatedDeployment":
        """Build the unreplicated baseline deployment on its own network."""
        if definition.make_direct is None:
            raise ValueError(f"service {definition.name!r} has no baseline")
        options = definition.resolve_options(definition.direct_options,
                                             options)
        scheduler = Scheduler()
        network = Network(scheduler,
                          network_config or NetworkConfig(seed=seed))
        direct = definition.make_direct(WrapperContext(
            index=0, backend_class=backend_class,
            clock=lambda: scheduler.now, options=options))
        server_id = f"{definition.name}-server"
        node = DirectServiceServer(server_id, network, direct.handler)
        if direct.wire is not None:
            direct.wire(node)
        channel = DirectChannel(definition.name, scheduler, network,
                                server_id, definition.direct_client_id)
        make_client = definition.make_direct_client or definition.make_client
        return cls(definition=definition, scheduler=scheduler,
                   network=network, channel=channel,
                   client=make_client(channel),
                   backend=direct.backend, server=node)
