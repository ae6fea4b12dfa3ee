"""EdgeTier: serve reads from the edge under an explicit staleness contract.

The tier fronts a replication group (or several sharded groups) with a
per-shard *consistency-mode ladder*::

    LINEARIZABLE ──► BOUNDED_STALE(Δ) ──► LAST_KNOWN_GOOD

- **LINEARIZABLE** reads ride the BFT read-only fast path through
  :meth:`~repro.bft.client.BftClient.collect_read_certificate`; the
  accepting quorum becomes certificate evidence and refreshes the edge
  cache's lease for the key.
- When the shard's :class:`~repro.edge.breaker.CircuitBreaker` is open
  (consecutive timeouts, or a view-change signal), reads degrade to
  **BOUNDED_STALE(Δ)**: a cache hit under a valid lease, or a
  single-replica refresh carrying the replica's stable-checkpoint
  version vector as evidence.  A single replica cannot *prove* the value
  (the staleness-contract audit replays the abstract-state history for
  that); the vector makes the staleness claim checkable after the fact.
- With no fresh lease and no reachable replica, the tier answers
  **LAST_KNOWN_GOOD** from the expired cache — flagged, with no bound —
  or raises :class:`EdgeUnavailable` if it has never seen the key.

Every reply is flagged ``(mode, staleness_bound, evidence)`` and leaves
one ``edge_reply`` event in the tier's tracer, which the FaultLab
``staleness_contract`` checker audits.  Half-open probes re-promote a
healed shard back to the top of the ladder.

Like :class:`~repro.bft.client.SyncClient`, :meth:`EdgeTier.read` drives
the scheduler and must only be called from *outside* event context —
never from inside a scheduled callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.costs import CostModel, ZERO_COSTS
from repro.bft.messages import (EdgeRead, EdgeReadReply, authenticate,
                                verify_auth)
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.edge.breaker import OPEN, CircuitBreaker
from repro.edge.cache import EdgeCache
from repro.edge.evidence import (BOUNDED_STALE, EVIDENCE_CERTIFICATE,
                                 EVIDENCE_VECTOR, LAST_KNOWN_GOOD,
                                 LINEARIZABLE, EdgeReply, StalenessEvidence)
from repro.encoding.canonical import decanonical
from repro.errors import ReproError
from repro.service.sharding import CrossShardOp
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer


class EdgeUnavailable(ReproError):
    """No rung of the ladder could serve the read: the core is
    unreachable and the cache has never seen this key.  The contract
    allows refusal; it never allows an unflagged stale answer."""


class _EdgeNode(Node):
    """The edge's network presence for single-replica vector reads."""

    def __init__(self, edge_id: str, network: Network, registry: KeyRegistry,
                 costs: CostModel):
        super().__init__(edge_id, network)
        self.registry = registry
        self.costs = costs
        registry.enroll(edge_id)
        self._next_nonce = 0
        # nonce -> reply box ({} until the verified reply lands).
        self._boxes: Dict[int, Dict[str, EdgeReadReply]] = {}

    def fetch(self, replica_id: str, op: bytes) -> int:
        """Issue one EdgeRead to one replica; returns the nonce to poll."""
        self._next_nonce += 1
        nonce = self._next_nonce
        msg = authenticate(self, (replica_id,),
                           EdgeRead(self.node_id, nonce, op))
        self._boxes[nonce] = {}
        self.send(replica_id, msg)
        return nonce

    def reply_for(self, nonce: int) -> Optional[EdgeReadReply]:
        box = self._boxes.get(nonce)
        return box.get("reply") if box else None

    def forget(self, nonce: int) -> None:
        self._boxes.pop(nonce, None)

    def handle_edge_read_reply(self, src, reply: EdgeReadReply) -> None:
        box = self._boxes.get(reply.nonce)
        if box is None or "reply" in box:
            return
        if reply.edge_id != self.node_id \
                or not verify_auth(self, reply.replica_id, reply):
            return
        if digest(reply.result) != reply.result_digest:
            return
        box["reply"] = reply


@dataclass
class _ShardPort:
    """Everything the tier holds per shard: clients, breaker, monitors."""

    shard: int
    config: BftConfig
    client: BftClient          # linearizable fast-path reads
    node: _EdgeNode            # single-replica vector reads
    replicas: Sequence         # live replica objects (monitoring plane)
    breaker: CircuitBreaker
    rotation: int = 0          # round-robin cursor for vector reads
    last_view: int = 0         # view-signal edge detection
    last_vc_active: bool = False


@dataclass
class _Fetched:
    result: bytes
    evidence: StalenessEvidence


EDGE_ID = "edge0"        # network-id prefix of the tier's nodes
REFRESH_ATTEMPTS = 2     # replicas tried per bounded-stale refresh


class EdgeTier:
    """Bounded-staleness edge reads over one or more BASE groups.

    ``groups`` is one ``(config, registry, replicas)`` triple per shard —
    sharded deployments keep one key registry per group, so the edge
    enrolls (a node and a read client) in each.  Observing the live
    replica objects is the tier's *monitoring* plane: it stands in for an
    out-of-band health feed and powers the view-change breaker signal;
    the *data* plane is messages only.
    """

    def __init__(self, *, scheduler: Scheduler, network: Network,
                 groups: Sequence[Tuple[BftConfig, KeyRegistry, Sequence]],
                 tracer: Optional[Tracer] = None,
                 delta: float = 0.5,
                 read_timeout: float = 0.05,
                 refresh_timeout: float = 0.05,
                 failure_threshold: int = 2,
                 cooldown: float = 1.0,
                 probe_quota: int = 1,
                 costs: CostModel = ZERO_COSTS):
        if not groups:
            raise ValueError("need at least one replication group")
        self.scheduler = scheduler
        self.network = network
        # Without a shared tracer the tier keeps its own bounded ring, so
        # its ``edge_reply`` events can still be audited.
        self.tracer = tracer or Tracer()
        self.delta = delta
        self.read_timeout = read_timeout
        self.refresh_timeout = refresh_timeout
        self.cache = EdgeCache(lambda: scheduler.now, delta)
        self._router = None  # ShardRouter (extraction + shard routing)
        self.ports: List[_ShardPort] = []
        for i, (config, registry, replicas) in enumerate(groups):
            suffix = f"/s{i}" if len(groups) > 1 else ""
            client = BftClient(f"{EDGE_ID}{suffix}/ro", network, config,
                               registry, tracer=self.tracer, costs=costs)
            node = _EdgeNode(f"{EDGE_ID}{suffix}", network, registry, costs)
            breaker = CircuitBreaker(
                lambda: scheduler.now,
                failure_threshold=failure_threshold,
                cooldown=cooldown, probe_quota=probe_quota,
                on_transition=self._note_transition)
            self.ports.append(_ShardPort(i, config, client, node,
                                         list(replicas), breaker))

    # -- wiring ------------------------------------------------------------

    @classmethod
    def for_cluster(cls, cluster, **kw) -> "EdgeTier":
        """Front one :class:`~repro.harness.cluster.Cluster`."""
        kw.setdefault("tracer", cluster.tracer)
        return cls(scheduler=cluster.scheduler, network=cluster.network,
                   groups=[(cluster.config, cluster.registry,
                            cluster.replicas)], **kw)

    @classmethod
    def for_deployment(cls, deployment, **kw) -> "EdgeTier":
        """Front a :class:`~repro.service.sharding.ShardedDeployment`,
        one port per shard; reads route along the service's declared
        ``ShardKeySpec`` axis."""
        tier = cls(scheduler=deployment.scheduler,
                   network=deployment.network,
                   groups=[(s.cluster.config, s.cluster.registry,
                            s.cluster.replicas) for s in deployment.shards],
                   **kw)
        tier._router = deployment.router
        return tier

    @property
    def edge_node_ids(self) -> Tuple[str, ...]:
        """Every network id the edge occupies (for fault injection)."""
        ids: List[str] = []
        for port in self.ports:
            ids.append(port.node.node_id)
            ids.append(port.client.node_id)
        return tuple(ids)

    @property
    def now(self) -> float:
        return self.scheduler.now

    @property
    def metrics(self):
        return self.tracer.metrics

    def _note_transition(self, old: str, new: str) -> None:
        self.metrics.inc(f"edge.breaker.{old}_to_{new}")

    # -- routing -----------------------------------------------------------

    def _route(self, op: bytes) -> Tuple[int, Any]:
        """Resolve (shard, cache-axis key) for an op.

        Without a router there is one shard and no key axis.  With one
        (sharded), routing errors propagate: an op that does not map to
        exactly one shard cannot be edge-read.
        """
        if self._router is None:
            return 0, None
        decoded = decanonical(op)
        try:
            shard, keys = self._router.route(decoded)
        except CrossShardOp as exc:
            raise EdgeUnavailable(str(exc)) from None
        if shard is None:
            raise EdgeUnavailable(f"op {decoded[0]!r} goes to every shard")
        if not keys:
            return shard, None
        return shard, keys[0] if len(keys) == 1 else tuple(keys)

    # -- monitoring plane --------------------------------------------------

    def _poll_view_signal(self, port: _ShardPort) -> None:
        """Edge-detect view changes on the shard: a view advance or a
        newly active view-change protocol opens the breaker."""
        view = max(r.view for r in port.replicas)
        active = any(r.view_changes.active for r in port.replicas)
        if view > port.last_view or (active and not port.last_vc_active):
            port.breaker.signal_view_change()
            self.metrics.inc("edge.view_signals")
        port.last_view = max(port.last_view, view)
        port.last_vc_active = active

    # -- the ladder --------------------------------------------------------

    def read(self, op: bytes) -> EdgeReply:
        """Serve one read at the strongest mode currently available.

        Drives the scheduler (bounded by the configured timeouts); call
        only from outside event context.
        """
        shard, axis_key = self._route(op)
        port = self.ports[shard]
        self._poll_view_signal(port)
        cache_key = (shard, axis_key, digest(op))

        if port.breaker.allow_attempt():
            fetched = self._linearizable_read(port, op)
            if fetched is not None:
                port.breaker.record_success()
                self.cache.put(cache_key, fetched.result, fetched.evidence)
                return self._serve(port, LINEARIZABLE, None, fetched.result,
                                   fetched.evidence)
            port.breaker.record_failure()
            self.metrics.inc("edge.linearizable_timeouts")

        # BOUNDED_STALE(Δ): fresh cache, else a single-replica refresh.
        entry = self.cache.get_fresh(cache_key)
        if entry is None:
            fetched = self._refresh_from_replica(port, op)
            if fetched is not None:
                entry = self.cache.put(cache_key, fetched.result,
                                       fetched.evidence)
                if not entry.lease.valid(self.now):
                    entry = None  # evidence already older than Δ
        if entry is not None:
            return self._serve(port, BOUNDED_STALE, self.delta, entry.result,
                               entry.evidence)

        # LAST_KNOWN_GOOD: anything we ever saw, flagged, no bound.
        entry = self.cache.get_any(cache_key)
        if entry is not None:
            return self._serve(port, LAST_KNOWN_GOOD, None, entry.result,
                               entry.evidence)
        self.metrics.inc("edge.unavailable")
        raise EdgeUnavailable(f"shard {shard}: core unreachable and no "
                              f"cached state for key {axis_key!r}")

    def _serve(self, port: _ShardPort, mode: str, bound: Optional[float],
               result: bytes,
               evidence: Optional[StalenessEvidence]) -> EdgeReply:
        self.tracer.emit(self.now, port.node.node_id, "edge_reply",
                         port.shard, mode, bound, digest(result), evidence)
        return EdgeReply(result, mode, bound, evidence)

    # -- fetch paths -------------------------------------------------------

    def _await(self, timeout: float, ready: Callable[[], bool]) -> bool:
        """Run the scheduler until ``ready()`` or ``timeout`` sim-seconds.

        A cancellable sentinel bounds the wait, so a reply that lands
        early returns immediately instead of burning the full window.
        """
        expired: List[bool] = []
        sentinel = self.scheduler.schedule(timeout, expired.append, True)
        self.scheduler.run_until_idle_or(
            lambda: bool(expired) or ready())
        sentinel.cancel()
        return ready()

    def _linearizable_read(self, port: _ShardPort,
                           op: bytes) -> Optional[_Fetched]:
        """Read-only fast path under a timeout; quorum evidence."""
        box: Dict[str, Any] = {}
        port.client.collect_read_certificate(op,
                                             lambda c: box.update(cert=c))
        if not self._await(self.read_timeout, lambda: "cert" in box):
            port.client.cancel()
            return None
        cert = box["cert"]
        evidence = StalenessEvidence(
            kind=EVIDENCE_CERTIFICATE,
            issued_at_us=int(round(cert.issued_at * 1_000_000)),
            replicas=cert.voters)
        return _Fetched(cert.result, evidence)

    def _refresh_from_replica(self, port: _ShardPort,
                              op: bytes) -> Optional[_Fetched]:
        """Single-replica read with version-vector evidence, rotating
        through the shard's replicas."""
        n = len(port.replicas)
        for _ in range(min(REFRESH_ATTEMPTS, n)):
            replica = port.replicas[port.rotation % n]
            port.rotation += 1
            nonce = port.node.fetch(replica.node_id, op)
            self._await(self.refresh_timeout,
                        lambda: port.node.reply_for(nonce) is not None)
            reply = port.node.reply_for(nonce)
            port.node.forget(nonce)
            if reply is None:
                continue
            self.metrics.inc("edge.vector_reads")
            return _Fetched(reply.result, StalenessEvidence(
                kind=EVIDENCE_VECTOR,
                issued_at_us=reply.issued_at_us,
                replicas=(reply.replica_id,),
                checkpoint_seq=reply.checkpoint_seq,
                root_digest=reply.root_digest,
                stable_at_us=reply.stable_at_us))
        return None
