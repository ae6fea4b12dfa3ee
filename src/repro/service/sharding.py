"""Shard the abstract state space across independent BASE groups.

A :class:`ShardedDeployment` mounts N
:class:`~repro.service.deploy.ReplicatedDeployment` groups on one
simulation fabric (one scheduler, one network — distinct node ids per
shard, so the groups cannot interact by construction) and fronts them
with a :class:`ShardRouter`: a :class:`~repro.service.deploy.Channel`
that maps each operation to its owning group using the service's
declared :class:`~repro.service.deploy.ShardKeySpec`.

Routing is deterministic and stable: keys hash through
``digest(canonical(key))`` (never Python's per-process-randomized
``hash``), learned pins bind service-minted identifiers (NFS file
handles) to the shard that minted them, and every routed call extends a
per-shard rolling digest chain — two runs with the same seed and op
stream agree on every assignment iff the chains match, an O(1) check.

Ops whose keys straddle shards do not route; callers run them through
:meth:`ShardRouter.cross_shard_call`, a client-driven two-phase commit
over the kernel's ``__prepare__``/``__commit__``/``__abort__`` meta-ops
(the Basil pattern: clients drive cross-group atomic commit, each
phase's messages individually ordered by the BFT groups they touch).
The contract is all-or-nothing *application* — if any shard refuses the
prepare vote, no shard applies anything — not isolation between
concurrent coordinators; see docs/SHARDING.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bft.config import BftConfig
from repro.bft.costs import CostModel
from repro.base.library import BaseServiceConfig
from repro.crypto.digest import digest
from repro.encoding.canonical import canonical, decanonical
from repro.errors import ReproError
from repro.service.deploy import (BROADCAST, Broadcast, Channel, Deployment,
                                  LearnedKey, ReplicatedDeployment,
                                  ServiceDefinition, ShardKeySpec)
from repro.service.kernel import TXN_ABORT, TXN_COMMIT, TXN_PREPARE, TXN_TAG
from repro.sim.metrics import Metrics
from repro.sim.network import Network, NetworkConfig
from repro.sim.scheduler import Scheduler


class RoutingError(ReproError):
    """The router cannot map an op (or a learned pin) to one shard."""


class CrossShardOp(RoutingError):
    """An op's keys resolve to more than one shard: it cannot ride the
    plain ``call`` path — use :meth:`ShardRouter.cross_shard_call`."""

    def __init__(self, kind: Any, shards: Sequence[int]):
        super().__init__(f"op {kind!r} spans shards {sorted(shards)}")
        self.kind = kind
        self.shards = sorted(shards)


class TxnAborted(ReproError):
    """A cross-shard transaction was refused in the prepare phase; every
    prepared shard was aborted and no sub-op was applied anywhere."""

    def __init__(self, txn_id: str, refused: Sequence[int]):
        super().__init__(f"transaction {txn_id} refused by shards "
                         f"{sorted(refused)}")
        self.txn_id = txn_id
        self.refused = sorted(refused)


def stable_shard(key: Any, num_shards: int) -> int:
    """Deterministic shard for a canonical-encodable key.

    Hashes ``digest(canonical(key))`` — stable across processes and
    Python versions, unlike builtin ``hash`` (randomized by
    PYTHONHASHSEED, which would make routing unreproducible).
    """
    return int.from_bytes(digest(canonical(key))[:4], "big") % num_shards


class ShardRouter(Channel):
    """Deterministic op-to-shard routing behind the ``Channel`` interface.

    Service clients are oblivious: the same client class that drives one
    replicated group drives N of them through this router.  The router
    models one logical client machine — ``charge``/``now`` ride its home
    (shard 0) channel.
    """

    def __init__(self, channels: Sequence[Channel], spec: ShardKeySpec,
                 *, client_id: str = "router"):
        if not channels:
            raise ValueError("need at least one shard channel")
        self.channels = list(channels)
        self.spec = spec
        self.num_shards = len(self.channels)
        #: Learned key -> shard bindings (service-minted identifiers).
        self.pins: Dict[Any, int] = {}
        #: Routed-op count per shard.
        self.ops_routed = [0] * self.num_shards
        #: Rolling digest chain per shard over (op, reply) pairs: equal
        #: chains <=> byte-identical per-shard request logs.
        self.shard_logs = [digest(canonical(("shard-log", i)))
                           for i in range(self.num_shards)]
        self._client_tag = client_id
        self._txn_counter = 0

    # -- routing -----------------------------------------------------------

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key`` (pin first, stable hash otherwise).

        :class:`~repro.service.deploy.LearnedKey` keys never fall back
        to hashing — an unpinned one is a deterministic routing error.
        """
        if isinstance(key, LearnedKey):
            pinned = self.pins.get(key.value)
            if pinned is None:
                raise RoutingError(f"service-minted key {key.value!r} was "
                                   f"never learned from a reply")
            return pinned
        pinned = self.pins.get(key)
        if pinned is not None:
            return pinned
        return stable_shard(key, self.num_shards)

    def route(self, decoded: tuple) -> Tuple[Optional[int], List[Any]]:
        """The one shard a decoded op belongs to, and the keys that put
        it there.  ``(None, [])`` is a :data:`BROADCAST` op (no one
        shard); keys that resolve to several shards raise
        :class:`CrossShardOp`."""
        target = self.spec.extract(decoded)
        if target is None:
            return 0, []  # keyless registry-style ops live on the home shard
        if isinstance(target, Broadcast):
            return None, []
        keys = target if isinstance(target, list) else [target]
        shards = {self.shard_of(key) for key in keys}
        if len(shards) != 1:
            raise CrossShardOp(decoded[0], shards)
        return min(shards), keys    # of a singleton: no set order escapes

    def _pin(self, key: Any, shard: int) -> None:
        existing = self.pins.get(key)
        if existing is None:
            self.pins[key] = shard
        elif existing != shard:
            raise RoutingError(f"key {key!r} already pinned to shard "
                               f"{existing}, shard {shard} minted it again")

    def _record(self, shard: int, op: bytes, reply: bytes) -> None:
        self.ops_routed[shard] += 1
        self.shard_logs[shard] = digest(self.shard_logs[shard] + op + reply)

    # -- Channel -----------------------------------------------------------

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        decoded = decanonical(op)
        shard, _ = self.route(decoded)
        if shard is None:
            return self._broadcast(op, read_only)
        reply = self.channels[shard].call(op, read_only=read_only)
        self._record(shard, op, reply)
        if self.spec.learn is not None:
            for key in self.spec.learn(decoded, decanonical(reply)) or ():
                self._pin(key, shard)
        return reply

    def _broadcast(self, op: bytes, read_only: bool) -> bytes:
        replies = []
        for shard, channel in enumerate(self.channels):
            reply = channel.call(op, read_only=read_only)
            self._record(shard, op, reply)
            replies.append(reply)
        if any(reply != replies[0] for reply in replies[1:]):
            raise RoutingError(f"broadcast replies diverged for op "
                               f"{decanonical(op)[0]!r}")
        return replies[0]

    def charge(self, seconds: float) -> None:
        self.channels[0].charge(seconds)

    @property
    def now(self) -> float:
        return self.channels[0].now

    # -- cross-shard two-phase commit --------------------------------------

    def cross_shard_call(self, ops: Sequence[bytes]) -> List[bytes]:
        """Apply a batch of single-shard ops atomically across shards.

        Groups the ops by owning shard, prepares every shard (each vote
        is a deterministic function of the sub-op bytes), then commits —
        each ``__commit__`` carries its shard's sub-ops, so
        a replica that checkpointed past the prepare still executes the
        identical sub-ops at the commit's sequence point.  Any refusal
        aborts the prepared shards and raises :class:`TxnAborted` with
        nothing applied anywhere.

        Returns the sub-op replies in the order the ops were given.
        """
        if not ops:
            return []
        plan: Dict[int, List[Tuple[int, bytes]]] = {}
        for index, sub in enumerate(ops):
            shard, _ = self.route(decanonical(sub))
            if shard is None:
                raise RoutingError("broadcast ops cannot join a "
                                   "cross-shard transaction")
            plan.setdefault(shard, []).append((index, sub))
        self._txn_counter += 1
        txn_id = f"{self._client_tag}:{self._txn_counter}"
        prepared: List[int] = []
        refused: List[int] = []
        for shard in sorted(plan):
            subs = tuple(sub for _, sub in plan[shard])
            raw = self.channels[shard].call(
                canonical((TXN_PREPARE, txn_id, subs)))
            reply = decanonical(raw)
            if reply[:2] == (TXN_TAG, "prepared"):
                prepared.append(shard)
            else:
                refused.append(shard)
        if refused:
            for shard in prepared:
                self.channels[shard].call(canonical((TXN_ABORT, txn_id)))
            raise TxnAborted(txn_id, refused)
        results: List[bytes] = [b""] * len(ops)
        for shard in sorted(plan):
            subs = tuple(sub for _, sub in plan[shard])
            raw = self.channels[shard].call(
                canonical((TXN_COMMIT, txn_id, subs)))
            reply = decanonical(raw)
            if reply[:2] != (TXN_TAG, "committed"):
                raise RoutingError(f"shard {shard} failed to commit "
                                   f"{txn_id}: {reply!r}")
            for (index, sub), sub_reply in zip(plan[shard], reply[3]):
                results[index] = sub_reply
                self._record(shard, sub, sub_reply)
        return results


@dataclass
class ShardedDeployment(Deployment):
    """N independent BASE groups on one fabric behind a shard router."""

    shards: List[ReplicatedDeployment] = field(default_factory=list)
    router: ShardRouter = None  # type: ignore[assignment]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def metrics(self) -> Metrics:
        """One registry aggregating every shard under ``shard{i}.``."""
        merged = Metrics()
        for i, shard in enumerate(self.shards):
            merged.merge(shard.metrics, prefix=f"shard{i}.")
        return merged

    @classmethod
    def build(cls, definition: ServiceDefinition, num_shards: int,
              backend_classes: Optional[Sequence[Optional[type]]] = None,
              *,
              config: Optional[BftConfig] = None,
              base_config: Optional[BaseServiceConfig] = None,
              network_config: Optional[NetworkConfig] = None,
              replica_costs: Optional[List[CostModel]] = None,
              client_id: Optional[str] = None,
              seed: int = 0,
              **options: Any) -> "ShardedDeployment":
        """Build ``num_shards`` groups of one service on a shared fabric.

        Each group gets the same ``config`` with its replica ids
        namespaced ``shard{i}/...`` (so the co-tenant groups' nodes can
        never collide on the shared network), its own key registry and
        tracer, and its own client ``shard{i}/{client_id}``.
        """
        if definition.shard_key is None:
            raise ValueError(f"service {definition.name!r} declares no "
                             f"shard key and cannot be sharded")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        config = config or BftConfig()
        scheduler = Scheduler()
        network = Network(scheduler,
                          network_config or NetworkConfig(seed=seed))
        client_id = client_id or definition.client_id
        shards: List[ReplicatedDeployment] = []
        for i in range(num_shards):
            shard_config = replace(config, replica_ids=[
                f"shard{i}/{rid}" for rid in config.replica_ids])
            shards.append(ReplicatedDeployment.build(
                definition, backend_classes, config=shard_config,
                base_config=base_config, replica_costs=replica_costs,
                client_id=f"shard{i}/{client_id}", seed=seed,
                scheduler=scheduler, network=network, **options))
        router = ShardRouter([shard.channel for shard in shards],
                             definition.shard_key, client_id=client_id)
        return cls(definition=definition, scheduler=scheduler,
                   network=network, channel=router,
                   client=definition.make_client(router),
                   shards=shards, router=router)
