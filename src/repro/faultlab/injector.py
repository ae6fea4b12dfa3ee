"""Applies a :class:`~repro.faultlab.plan.FaultPlan` onto a live cluster.

The injector schedules each fault term's activation (and, for windowed
faults, its deactivation) on the cluster's own scheduler, so injections
interleave deterministically with protocol events.  Every activation and
clearance is emitted into the cluster's tracer as a ``fault_injected`` /
``fault_cleared`` event (and so counted in ``tracer.counters``), so
injected faults appear in the same observability stream as the protocol
itself.

``quiesce()`` force-clears whatever is still active — the trial runner
calls it before the settle phase so convergence is checked against a
healed system, mirroring the paper's assumption that faults are
eventually repaired.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.bft.faults import BEHAVIORS, HONEST, Behavior
from repro.faultlab.plan import FaultPlan
from repro.nfs.backends.faulty import AGEING_BACKENDS


def make_behavior(name: str, params=()) -> Behavior:
    kwargs = dict(params)
    if name == "delay" and "kinds" in kwargs:
        kwargs["kinds"] = tuple(kwargs["kinds"])
    return BEHAVIORS[name](**kwargs)


def make_backend_fault(name: str, inner: Any, params=()) -> Any:
    return AGEING_BACKENDS[name](inner, **dict(params))


class FaultInjector:
    """Schedules one plan's faults onto one cluster."""

    def __init__(self, cluster, plan: FaultPlan,
                 edge_nodes: Sequence[str] = ()):
        self.cluster = cluster
        self.plan = plan
        #: The trial's edge tier nodes (what ``edge_partition`` cuts off).
        self.edge_nodes = edge_nodes
        self.injected = 0
        self.cleared = 0
        #: Revert callbacks for faults active right now, keyed by term
        #: index (windowed faults pop themselves on expiry; ``quiesce``
        #: drains the rest).
        self._active: Dict[int, Callable[[], None]] = {}
        self._armed = False

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault term's activation on the sim clock."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        for index, fault in enumerate(self.plan):
            self.cluster.scheduler.schedule(fault.start, self._activate,
                                            index, fault)

    def quiesce(self) -> None:
        """Force-clear everything still active (end of the chaos phase):
        behaviors back to honest, partitions healed, links restored,
        crashed replicas restarted."""
        for index in sorted(self._active):
            self._clear(index, forced=True)

    # -- internals ----------------------------------------------------------

    def _activate(self, index: int, fault) -> None:
        revert = getattr(self, f"_apply_{fault.kind}")(fault)
        self.injected += 1
        self.cluster.tracer.emit(self.cluster.scheduler.now, "faultlab",
                                 "fault_injected", fault.describe())
        if revert is None:
            return
        self._active[index] = revert
        if fault.stop is not None:
            self.cluster.scheduler.schedule(
                max(0.0, fault.stop - self.cluster.scheduler.now),
                self._clear, index)

    def _clear(self, index: int, forced: bool = False) -> None:
        revert = self._active.pop(index, None)
        if revert is None:
            return  # already cleared (e.g. quiesce raced the stop event)
        revert()
        self.cleared += 1
        self.cluster.tracer.emit(self.cluster.scheduler.now, "faultlab",
                                 "fault_cleared",
                                 self.plan.faults[index].describe(), forced)

    # -- one applier per fault kind; each returns a revert callback ---------

    def _apply_replica(self, fault) -> Callable[[], None]:
        replica = self.cluster.replicas[fault.replica]
        replica.behavior = make_behavior(fault.behavior, fault.params)

        def revert():
            replica.behavior = HONEST
        return revert

    def _apply_partition(self, fault) -> Callable[[], None]:
        return self._cut_off({self.cluster.replicas[r].node_id
                              for r in fault.replicas})

    def _apply_edge_partition(self, fault) -> Callable[[], None]:
        if not self.edge_nodes:
            raise ValueError("edge_partition fault needs a trial built "
                             "with an edge tier (the injector was given "
                             "no edge node ids)")
        return self._cut_off(set(self.edge_nodes))

    def _cut_off(self, group) -> Callable[[], None]:
        """Partition ``group`` from every other node id."""
        network = self.cluster.network
        # Snapshot the node set at activation time: replicas and clients.
        others = [n for n in network.node_ids() if n not in group]
        pairs = [(a, b) for a in sorted(group) for b in others]
        for a, b in pairs:
            network.partition(a, b)

        def revert():
            for a, b in pairs:
                network.heal(a, b)
        return revert

    def _apply_loss(self, fault) -> Callable[[], None]:
        link = self.cluster.network.config.default_link
        previous = link.drop_rate
        link.drop_rate = min(0.99, previous + fault.rate)

        def revert():
            link.drop_rate = previous
        return revert

    def _apply_delay_spike(self, fault) -> Callable[[], None]:
        link = self.cluster.network.config.default_link
        previous = link.latency
        link.latency = previous + fault.extra_latency

        def revert():
            link.latency = previous
        return revert

    def _apply_crash(self, fault) -> Callable[[], None]:
        replica = self.cluster.replicas[fault.replica]
        replica.crash()

        def revert():
            replica.restart_node()
        return revert

    def _apply_recovery(self, fault) -> None:
        self.cluster.replicas[fault.replica].recovery.start_recovery()
        return None  # recovery runs to completion on its own

    def _apply_backend(self, fault) -> Optional[Callable[[], None]]:
        replica = self.cluster.replicas[fault.replica]
        upcalls = getattr(replica.state, "upcalls", None)
        backend = getattr(upcalls, "backend", None)
        if backend is None:
            raise ValueError(
                f"backend fault on replica {fault.replica} needs a service "
                f"cluster with a wrapped backend (state "
                f"{type(replica.state).__name__} has none)")
        wrapper = make_backend_fault(fault.fault, backend, fault.params)
        upcalls.backend = wrapper
        if fault.stop is None:
            return None  # rejuvenation is proactive recovery's job

        def revert():
            # Go benign in place rather than unwrapping: a state transfer
            # may already hold a reference to the wrapper.
            if fault.fault == "corrupting":
                wrapper.probability = 0.0
            else:
                wrapper.leak_per_op = 0
                wrapper.rejuvenate()
        return revert
