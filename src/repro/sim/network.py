"""Simulated asynchronous network: delays, loss, partitions, multicast.

Models the substrate BFT assumes: an unreliable network that may delay,
drop, duplicate, or reorder messages, but eventually delivers them (the
liveness assumption).  Per-link behaviour is configurable and every random
choice comes from a seeded RNG, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.sim.scheduler import Scheduler


@dataclass
class LinkConfig:
    """Behaviour of a single directed link."""

    latency: float = 0.0001          # base propagation delay (100 us LAN)
    jitter: float = 0.00002          # uniform extra delay in [0, jitter]
    bandwidth: float = 12_500_000.0  # bytes/sec (100 Mb/s)
    drop_rate: float = 0.0           # probability a message is silently lost
    duplicate_rate: float = 0.0      # probability a message is delivered twice


@dataclass
class NetworkConfig:
    """Network-wide defaults; individual links may override."""

    seed: int = 0
    default_link: LinkConfig = field(default_factory=LinkConfig)


class Network:
    """Message fabric connecting :class:`~repro.sim.node.Node` instances.

    Nodes are registered under hashable ids.  ``send`` charges latency +
    size/bandwidth, samples jitter/drops from the seeded RNG, and schedules
    ``node.on_message(src, msg)`` on the scheduler.  Partitions are modelled
    as a set of unordered id pairs whose traffic is dropped.
    """

    def __init__(self, scheduler: Scheduler, config: Optional[NetworkConfig] = None):
        self.scheduler = scheduler
        self.config = config or NetworkConfig()
        self.rng = random.Random(self.config.seed)
        self._nodes: Dict[Any, Any] = {}
        self._links: Dict[Tuple[Any, Any], LinkConfig] = {}
        self._partitioned: Set[frozenset] = set()
        self._filters: list = []  # callables (src, dst, msg) -> bool (deliver?)
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0

    # -- topology ----------------------------------------------------------

    def register(self, node_id: Any, node: Any) -> None:
        """Attach a node; it must expose ``on_message(src, msg)``."""
        self._nodes[node_id] = node

    def node_ids(self) -> Iterable[Any]:
        return self._nodes.keys()

    def set_link(self, src: Any, dst: Any, link: LinkConfig) -> None:
        """Override the link configuration for the directed pair."""
        self._links[(src, dst)] = link

    # -- partitions and filters --------------------------------------------

    def partition(self, a: Any, b: Any) -> None:
        """Drop all traffic between ``a`` and ``b`` until healed."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: Any, b: Any) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, a: Any, b: Any) -> bool:
        return frozenset((a, b)) in self._partitioned

    def add_filter(self, fn: Callable[[Any, Any, Any], bool]) -> None:
        """Install a delivery filter; returning False drops the message.

        Filters let tests drop, say, all PRE-PREPAREs from a given primary
        without subclassing nodes.
        """
        self._filters.append(fn)

    def remove_filter(self, fn: Callable[[Any, Any, Any], bool]) -> None:
        self._filters.remove(fn)

    # -- transmission -------------------------------------------------------

    def send(self, src: Any, dst: Any, msg: Any, size: Optional[int] = None,
             extra_delay: float = 0.0) -> None:
        """Send ``msg`` from ``src`` to ``dst``.

        ``size`` is the wire size in bytes used for the bandwidth charge;
        when omitted the message's ``wire_size()`` is used if present,
        else a small fixed size.  ``extra_delay`` shifts the departure
        (a busy sender's CPU backlog) without a trampoline event.
        """
        self.messages_sent += 1
        if size is None:
            wire = getattr(msg, "wire_size", None)
            size = wire() if wire is not None else 64
        self.bytes_sent += size
        # Hot path: skip the partition/filter machinery entirely when no
        # partitions or filters are installed (the common case).
        if self._partitioned and self.is_partitioned(src, dst):
            self.messages_dropped += 1
            return
        if self._filters:
            for fn in self._filters:
                if not fn(src, dst, msg):
                    self.messages_dropped += 1
                    return
        link = self.config.default_link
        if self._links:     # per-link overrides are rare: skip the key
            link = self._links.get((src, dst), link)
        if link.drop_rate and self.rng.random() < link.drop_rate:
            self.messages_dropped += 1
            return
        # ``_sample_delay``, spelled out: one RNG draw, same association.
        delay = extra_delay + (
            link.latency
            + (self.rng.random() * link.jitter if link.jitter else 0.0)
            + size / link.bandwidth)
        self.scheduler.schedule(delay, self._deliver, src, dst, msg)
        if link.duplicate_rate and self.rng.random() < link.duplicate_rate:
            # The duplicate takes its own trip through the network: an
            # independently sampled delay, not a deterministic doubling
            # (it may even arrive before the original).
            self.messages_duplicated += 1
            self.scheduler.schedule(
                extra_delay + self._sample_delay(link, size),
                self._deliver, src, dst, msg)

    def multicast(self, src: Any, dsts: Iterable[Any], msg: Any,
                  size: Optional[int] = None,
                  extra_delay: float = 0.0) -> None:
        """True IP multicast: the sender serializes the message *once*
        (it counts once against ``bytes_sent``), but each destination is
        charged the serialization delay of *its own* link — a slow edge
        must not speed up, nor a fast edge slow down, the others.
        Per-destination propagation jitter, drops, and partitions apply
        as usual, drawn in destination order.

        ``bytes_sent`` counts the single serialization only when at least
        one copy actually enters the fabric: if every destination copy is
        partitioned, filtered, or dropped, nothing went onto the wire.
        """
        if size is None:
            wire = getattr(msg, "wire_size", None)
            size = wire() if wire is not None else 64
        check_partitions = bool(self._partitioned)
        filters = self._filters
        links = self._links
        default_link = self.config.default_link
        random = self.rng.random
        schedule = self.scheduler.schedule
        deliver = self._deliver
        entered = False
        for dst in dsts:
            self.messages_sent += 1
            if check_partitions and self.is_partitioned(src, dst):
                self.messages_dropped += 1
                continue
            if filters and any(not fn(src, dst, msg) for fn in filters):
                self.messages_dropped += 1
                continue
            link = default_link
            if links:
                link = links.get((src, dst), link)
            if link.drop_rate and random() < link.drop_rate:
                self.messages_dropped += 1
                continue
            schedule(extra_delay + (
                link.latency
                + (random() * link.jitter if link.jitter else 0.0)
                + size / link.bandwidth), deliver, src, dst, msg)
            entered = True
        if entered:
            self.bytes_sent += size

    # -- internals -----------------------------------------------------------

    def _sample_delay(self, link: LinkConfig, nbytes: int) -> float:
        """One trip's delay on ``link``: latency + jitter + serialization."""
        return (link.latency
                + (self.rng.random() * link.jitter if link.jitter else 0.0)
                + nbytes / link.bandwidth)

    def _deliver(self, src: Any, dst: Any, msg: Any) -> None:
        node = self._nodes.get(dst)
        if node is None:
            self.messages_dropped += 1
            return
        node.on_message(src, msg)
