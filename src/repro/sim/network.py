"""Simulated asynchronous network: delays, loss, partitions, multicast.

Models the substrate BFT assumes: an unreliable network that may delay,
drop, or reorder messages, but eventually delivers them (the liveness
assumption).  Every link behaves as the one configured link, and every
random choice comes from a seeded RNG, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set

from repro.sim.scheduler import Scheduler

#: Serialization rate of every link, bytes/sec (100 Mb/s).
BANDWIDTH = 12_500_000.0


@dataclass
class LinkConfig:
    """Behaviour of every directed link."""

    latency: float = 0.0001          # base propagation delay (100 us LAN)
    jitter: float = 0.00002          # uniform extra delay in [0, jitter]
    drop_rate: float = 0.0           # probability a message is silently lost


@dataclass
class NetworkConfig:
    """The RNG seed and the link every message travels."""

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
        self._partitioned: Set[frozenset] = set()
        self._filters: list = []  # callables (src, dst, msg) -> bool (deliver?)
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # -- topology ----------------------------------------------------------

    def register(self, node_id: Any, node: Any) -> None:
        """Attach a node; it must expose ``on_message(src, msg)``."""
        self._nodes[node_id] = node

    def node_ids(self) -> Iterable[Any]:
        return self._nodes.keys()

    # -- partitions and filters --------------------------------------------

    def partition(self, a: Any, b: Any) -> None:
        """Drop all traffic between ``a`` and ``b`` until healed."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: Any, b: Any) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

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
        (a busy sender's CPU backlog) without a trampoline event.  Unlike
        :meth:`multicast`, the size counts against ``bytes_sent`` even
        when the copy is then partitioned, filtered, or dropped.
        """
        if size is None:
            wire = getattr(msg, "wire_size", None)
            size = wire() if wire is not None else 64
        self.bytes_sent += size
        self._transmit(src, dst, msg, size, extra_delay)

    def multicast(self, src: Any, dsts: Iterable[Any], msg: Any,
                  extra_delay: float = 0.0) -> None:
        """True IP multicast: the sender serializes the message *once*
        (it counts once against ``bytes_sent``), and each destination's
        copy then takes the same trip a :meth:`send` would, drawn in
        destination order.

        ``bytes_sent`` counts the single serialization only when at least
        one copy actually enters the fabric: if every destination copy is
        partitioned, filtered, or dropped, nothing went onto the wire.
        """
        wire = getattr(msg, "wire_size", None)
        size = wire() if wire is not None else 64
        transmit = self._transmit
        entered = False
        for dst in dsts:
            if transmit(src, dst, msg, size, extra_delay):
                entered = True
        if entered:
            self.bytes_sent += size

    # -- internals -----------------------------------------------------------

    def _transmit(self, src: Any, dst: Any, msg: Any, size: int,
                  extra_delay: float) -> bool:
        """One copy's trip, the rule both transmit paths follow: a
        partition, a filter or the link's drop rate loses it; otherwise
        it arrives after latency + jitter + serialization, one RNG draw
        for each of the drop and the jitter.  True if it entered the
        fabric."""
        self.messages_sent += 1
        # Hot path: skip the partition/filter machinery entirely when no
        # partitions or filters are installed (the common case).
        if self._partitioned and frozenset((src, dst)) in self._partitioned:
            self.messages_dropped += 1
            return False
        if self._filters:
            for fn in self._filters:
                if not fn(src, dst, msg):
                    self.messages_dropped += 1
                    return False
        link = self.config.default_link
        random = self.rng.random
        if link.drop_rate and random() < link.drop_rate:
            self.messages_dropped += 1
            return False
        self.scheduler.schedule(extra_delay + (
            link.latency
            + (random() * link.jitter if link.jitter else 0.0)
            + size / BANDWIDTH), self._deliver, src, dst, msg)
        return True

    def _deliver(self, src: Any, dst: Any, msg: Any) -> None:
        node = self._nodes.get(dst)
        if node is None:
            self.messages_dropped += 1
            return
        node.on_message(src, msg)
