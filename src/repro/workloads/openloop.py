"""Open-loop traffic engine: the million-user front door.

Every other workload in this repo (Andrew, OO7, microbench) is
*closed-loop*: a handful of clients issue the next request
only after the previous one completes, so the offered load politely
adapts to the system and queueing collapse is structurally invisible.
Real front doors are open-loop — arrivals fire on their own schedule
whether or not earlier requests finished — and the interesting numbers
are not raw rates but *sustainable* rates at a latency SLO.

This module provides:

- **Arrival processes** (:class:`PoissonArrivals`, :class:`OnOffArrivals`
  for bursty/self-similar traffic), both drawing exclusively from a
  caller-supplied seeded ``random.Random`` so a run is a pure function
  of its seed;
- **An aggregated client population**: ~10^6 logical users cost
  O(active requests), not O(users).  A fixed pool of
  :class:`~repro.bft.client.BftClient` instances multiplexes logical
  sessions (``BftClient`` enforces one outstanding op, as in BFT);
  arrivals that find the pool busy wait in a bounded front-door queue,
  and beyond that are shed — exactly the degrade-don't-die behaviour
  the BASE/CAP framing asks for;
- **Per-class latency SLOs** recorded through the cluster's
  :class:`~repro.sim.metrics.Metrics` histograms, with timeouts,
  service errors, and shed requests all *counted against* the SLO
  (excluding failures from a latency SLO is how dashboards lie);
- **A load-sweep controller** (:func:`walk_to_knee`) that walks
  offered load monotonically to find the knee of the
  latency-vs-throughput curve and reports the maximum sustainable
  request rate at a stated p95 SLO.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Result prefix the replica execution envelope uses for service errors.
ERROR_PREFIX = b"__error__:"


# -- arrival processes --------------------------------------------------------------


class ArrivalProcess:
    """A seeded point process on the simulated-time axis.

    ``next_after(t)`` returns the next arrival instant strictly after
    ``t``; successive calls must pass monotonically non-decreasing times.
    ``mean_rate`` is the long-run average arrivals/second, used by the
    sweep to label curve points.
    """

    mean_rate: float = 0.0

    def next_after(self, t: float) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: independent exponential inter-arrival times."""

    def __init__(self, rate: float, rng: random.Random):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.mean_rate = rate
        self.rng = rng

    def next_after(self, t: float) -> float:
        return t + self.rng.expovariate(self.mean_rate)


class OnOffArrivals(ArrivalProcess):
    """Bursty traffic: Poisson bursts separated by silences.

    ON and OFF period lengths are heavy-tailed (Pareto with shape
    ``ALPHA`` < 2), which is the classical construction whose
    aggregate is self-similar — flash-crowd-shaped load rather than
    smooth Poisson.  During ON periods arrivals fire at
    ``rate / on_fraction`` so the *long-run* mean stays ``rate``.
    """

    ALPHA = 1.5
    # Pareto(alpha) has mean alpha/(alpha-1); scale to the target.
    _PARETO_MEAN = ALPHA / (ALPHA - 1.0)

    def __init__(self, rate: float, rng: random.Random,
                 on_fraction: float = 0.25, mean_on: float = 0.5):
        if not 0 < on_fraction <= 1:
            raise ValueError(f"on_fraction must be in (0, 1], got {on_fraction!r}")
        self.mean_rate = rate
        self.burst_rate = rate / on_fraction
        self.rng = rng
        self.mean_on = mean_on
        self.mean_off = mean_on * (1.0 - on_fraction) / on_fraction
        self._on_until = -1.0   # currently OFF; first call opens a burst
        self._t = 0.0

    def _draw_period(self, mean: float) -> float:
        return mean * self.rng.paretovariate(self.ALPHA) / self._PARETO_MEAN

    def next_after(self, t: float) -> float:
        t = max(t, self._t)
        while True:
            if t >= self._on_until:
                # Silence, then a fresh burst window.
                if self._on_until >= 0.0:
                    t = self._on_until + self._draw_period(self.mean_off)
                self._on_until = t + self._draw_period(self.mean_on)
            candidate = t + self.rng.expovariate(self.burst_rate)
            if candidate < self._on_until:
                self._t = candidate
                return candidate
            t = self._on_until  # burst ended before the next arrival


#: name -> factory(rate, rng, **kwargs)
PROCESSES: Dict[str, Callable[..., ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "onoff": OnOffArrivals,
}


def make_process(name: str, rate: float, rng: random.Random,
                 **kwargs: Any) -> ArrivalProcess:
    try:
        factory = PROCESSES[name]
    except KeyError:
        raise KeyError(f"unknown arrival process {name!r}; "
                       f"known: {sorted(PROCESSES)}") from None
    return factory(rate, rng, **kwargs)


# -- request classes ----------------------------------------------------------------


@dataclass(frozen=True)
class RequestClass:
    """One traffic class: an op generator, a share of traffic, an SLO.

    ``make_op(rng, user)`` maps a seeded RNG plus the logical user id to
    ``(op_bytes, read_only)``.  ``slo_p95`` is the latency bound the
    class promises at the 95th percentile; ``timeout`` is when the
    logical user gives up (counted against the SLO, never excluded).
    """

    name: str
    weight: float
    make_op: Callable[[random.Random, int], Tuple[bytes, bool]]
    slo_p95: float
    timeout: float


def default_kv_classes(slo_p95: float = 0.005,
                       state_size: int = 64) -> List[RequestClass]:
    """One read in four over the in-memory KV service, keyed per user;
    a request times out at eight times its SLO."""
    from repro.bft.statemachine import InMemoryStateManager

    def make_read(rng: random.Random, user: int) -> Tuple[bytes, bool]:
        return InMemoryStateManager.op_get(user % state_size), True

    def make_write(rng: random.Random, user: int) -> Tuple[bytes, bool]:
        return (InMemoryStateManager.op_put(user % state_size,
                                            b"u%d" % (user % 9973)), False)

    timeout = slo_p95 * 8.0
    return [
        RequestClass("read", 0.25, make_read, slo_p95, timeout),
        RequestClass("write", 0.75, make_write, slo_p95, timeout),
    ]


# -- the aggregated population driver -----------------------------------------------


class _OpenRequest:
    """One logical user's in-flight request (arrival through resolution)."""

    __slots__ = ("cls", "op", "read_only", "arrived_at",
                 "deadline_event", "client", "done")

    def __init__(self, cls: RequestClass, op: bytes,
                 read_only: bool, arrived_at: float):
        self.cls = cls
        self.op = op
        self.read_only = read_only
        self.arrived_at = arrived_at
        self.deadline_event = None
        self.client = None
        self.done = False


@dataclass
class ClassStats:
    """Per-class SLO ledger; every offered request lands in exactly one
    resolution bucket, and ``slo_met`` only counts clean completions
    within the bound — timeouts, shed requests, and service errors all
    count against attainment."""

    offered: int = 0
    completed: int = 0
    slo_met: int = 0
    timed_out: int = 0
    shed: int = 0
    errors: int = 0

    @property
    def resolved(self) -> int:
        return self.completed + self.timed_out + self.shed

    @property
    def attainment(self) -> float:
        return self.slo_met / self.resolved if self.resolved else 1.0

    def as_dict(self) -> Dict[str, Any]:
        return {"offered": self.offered, "completed": self.completed,
                "slo_met": self.slo_met, "timed_out": self.timed_out,
                "shed": self.shed, "errors": self.errors,
                "attainment": self.attainment}


class OpenLoopDriver:
    """Drives open-loop traffic from a simulated million-user population.

    A pool of ``pool_size`` protocol clients multiplexes the logical
    sessions; arrivals beyond the pool wait in a bounded FIFO queue
    (queue wait counts toward latency), and beyond ``queue_limit`` they
    are shed at the door.  Each admitted request carries its class
    timeout: blowing it cancels the protocol call
    (:meth:`~repro.bft.client.BftClient.cancel`), frees the pool slot,
    and books an SLO miss.  All randomness (class mix, user ids) comes
    from one string-seeded RNG, so the arrival sequence — and therefore
    the whole run — is bit-identical per (seed, label).
    """

    def __init__(self, cluster, process: ArrivalProcess,
                 classes: Sequence[RequestClass], seed: int = 0,
                 n_users: int = 1_000_000, pool_size: int = 32,
                 queue_limit: int = 256, label: str = "openloop",
                 record_arrivals: bool = False):
        if not classes:
            raise ValueError("need at least one request class")
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.metrics = cluster.metrics
        self.process = process
        self.classes = list(classes)
        self.n_users = n_users
        self.queue_limit = queue_limit
        self.label = label
        self.rng = random.Random(f"openloop:{seed}:{label}")
        total = sum(c.weight for c in self.classes)
        self._cum_weights = []
        acc = 0.0
        for c in self.classes:
            acc += c.weight / total
            self._cum_weights.append(acc)
        self.pool = [cluster.add_client(f"{label}-{i}").client
                     for i in range(pool_size)]
        self._free: deque = deque(self.pool)
        self._queue: deque = deque()
        self._live_queued = 0
        self._in_flight = 0
        self._stop_at: Optional[float] = None
        self._started_at = 0.0
        self._arrivals_open = False
        self._arrivals_pending = False
        #: The one count: every total below is a sum over these.
        self.stats: Dict[str, ClassStats] = {
            c.name: ClassStats() for c in self.classes}
        self.arrival_log: List[float] = [] if record_arrivals else None

    # -- lifecycle ----------------------------------------------------------

    def start(self, duration: float) -> None:
        """Open the front door for ``duration`` simulated seconds."""
        if self._arrivals_open:
            raise RuntimeError("driver already started")
        self._arrivals_open = True
        self._started_at = self.scheduler.now
        self._stop_at = self.scheduler.now + duration
        self._schedule_next(self.scheduler.now)

    @property
    def drained(self) -> bool:
        """True once the door is closed and every admitted request has
        resolved (completed, timed out, or been shed)."""
        return (self._arrivals_open and not self._arrivals_pending
                and self._in_flight == 0 and self._live_queued == 0)

    def drive(self, duration: float, max_events: int = 50_000_000) -> bool:
        """Start and run the scheduler until the traffic drains."""
        self.start(duration)
        return self.scheduler.run_until_idle_or(lambda: self.drained,
                                                max_events)

    # -- arrivals -----------------------------------------------------------

    def _schedule_next(self, after: float) -> None:
        t = self.process.next_after(after)
        if t > self._stop_at:
            self._arrivals_pending = False
            return
        self._arrivals_pending = True
        self.scheduler.schedule(max(0.0, t - self.scheduler.now),
                                self._arrive, t)

    def _arrive(self, t: float) -> None:
        if self.arrival_log is not None:
            self.arrival_log.append(t)
        draw = self.rng.random()
        cls = self.classes[-1]
        for i, cum in enumerate(self._cum_weights):
            if draw <= cum:
                cls = self.classes[i]
                break
        user = self.rng.randrange(self.n_users)
        op, read_only = cls.make_op(self.rng, user)
        pending = _OpenRequest(cls, op, read_only, self.scheduler.now)
        stats = self.stats[cls.name]
        stats.offered += 1
        if self._free:
            self._admit(pending)
            self._dispatch(self._free.popleft(), pending)
        elif self._live_queued < self.queue_limit:
            self._admit(pending)
            self._queue.append(pending)
            self._live_queued += 1
        else:
            # Front door full: shed.  Serving *something* to most users
            # beats serving nothing to everyone — but every shed request
            # is an SLO miss, never a statistics exclusion.
            stats.shed += 1
        self._schedule_next(t)

    def _admit(self, pending: _OpenRequest) -> None:
        pending.deadline_event = self.scheduler.schedule(
            pending.cls.timeout, self._deadline, pending)

    # -- request lifecycle --------------------------------------------------

    def _dispatch(self, client, pending: _OpenRequest) -> None:
        pending.client = client
        self._in_flight += 1
        self.metrics.observe("openloop.queue_wait",
                             self.scheduler.now - pending.arrived_at)
        client.invoke(pending.op,
                      lambda result, c=client, p=pending:
                      self._complete(c, p, result),
                      read_only=pending.read_only)

    def _complete(self, client, pending: _OpenRequest, result: bytes) -> None:
        if pending.done:
            return
        pending.done = True
        if pending.deadline_event is not None:
            # Drop the reference too: the event's args point back at
            # ``pending``, and the pair would be a cycle only GC frees.
            pending.deadline_event.cancel()
            pending.deadline_event = None
        self._in_flight -= 1
        latency = self.scheduler.now - pending.arrived_at
        stats = self.stats[pending.cls.name]
        stats.completed += 1
        self.metrics.observe(f"openloop.latency.{pending.cls.name}", latency)
        if result.startswith(ERROR_PREFIX):
            stats.errors += 1
        elif latency <= pending.cls.slo_p95:
            stats.slo_met += 1
        self._release(client)

    def _deadline(self, pending: _OpenRequest) -> None:
        if pending.done:
            return
        pending.done = True
        pending.deadline_event = None
        stats = self.stats[pending.cls.name]
        stats.timed_out += 1
        # Censored observation: the user saw *at least* the timeout.
        # Recording the cap keeps overloaded percentiles honest instead
        # of surveying only the requests that happened to finish.
        self.metrics.observe(f"openloop.latency.{pending.cls.name}",
                             pending.cls.timeout)
        client = pending.client
        if client is not None:
            pending.client = None
            self._in_flight -= 1
            client.cancel()
            self._release(client)
        else:
            self._live_queued -= 1  # popped lazily from the queue

    def _release(self, client) -> None:
        while self._queue:
            pending = self._queue.popleft()
            if pending.done:
                continue  # timed out while queued; already accounted
            self._live_queued -= 1
            self._dispatch(client, pending)
            return
        self._free.append(client)

    # -- reporting ----------------------------------------------------------

    @property
    def resolved(self) -> int:
        return self.completed + self.timed_out + self.shed

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self.stats.values())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.stats.values())

    @property
    def timed_out(self) -> int:
        return sum(s.timed_out for s in self.stats.values())

    @property
    def shed(self) -> int:
        return sum(s.shed for s in self.stats.values())

    @property
    def errors(self) -> int:
        return sum(s.errors for s in self.stats.values())

    @property
    def slo_met(self) -> int:
        return sum(s.slo_met for s in self.stats.values())

    @property
    def attainment(self) -> float:
        """Fraction of *all* resolved requests that met their class SLO.
        Timeouts, shed requests, and errors are misses by construction."""
        return self.slo_met / self.resolved if self.resolved else 1.0

    def latency_percentile(self, p: float) -> float:
        """Percentile over every class's recorded latencies (seconds)."""
        samples: List[float] = []
        for c in self.classes:
            hist = self.metrics.histograms.get(f"openloop.latency.{c.name}")
            if hist is not None:
                samples.extend(hist._samples)
        if not samples:
            return float("nan")
        ordered = sorted(samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, Any]:
        duration = (self._stop_at - self._started_at) \
            if self._stop_at is not None else 0.0
        per_class = {}
        for c in self.classes:
            entry = self.stats[c.name].as_dict()
            hist = self.metrics.histograms.get(f"openloop.latency.{c.name}")
            entry["slo_p95"] = c.slo_p95
            entry["p50"] = hist.percentile(50) if hist else float("nan")
            entry["p95"] = hist.percentile(95) if hist else float("nan")
            per_class[c.name] = entry
        return {
            "offered": self.offered,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "errors": self.errors,
            "attainment": self.attainment,
            "duration": duration,
            "offered_rate": self.offered / duration if duration else 0.0,
            "achieved_rate": self.completed / duration if duration else 0.0,
            "p95": self.latency_percentile(95),
            "classes": per_class,
        }


# -- the load-sweep controller ------------------------------------------------------


@dataclass
class LoadPoint:
    """One point on the load-latency curve."""

    offered_rate: float       # target arrival rate handed to the process
    duration: float
    offered: int
    completed: int
    timed_out: int
    shed: int
    errors: int
    achieved_rate: float      # completions per simulated second
    p95: float                # latency p95 with timeouts censored at cap
    attainment: float         # fraction of resolved requests meeting SLO
    sustainable: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "offered_rate": self.offered_rate,
            "duration": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "errors": self.errors,
            "achieved_rate": self.achieved_rate,
            "p95": self.p95 if math.isfinite(self.p95) else None,
            "attainment": self.attainment,
            "sustainable": self.sustainable,
        }


@dataclass
class LoadCurve:
    """A monotone offered-load sweep and where its knee is."""

    slo_p95: float
    target_attainment: float
    points: List[LoadPoint] = field(default_factory=list)

    @property
    def knee(self) -> Optional[LoadPoint]:
        """The highest sustainable point (None if even the lowest load
        blew the SLO)."""
        best = None
        for point in self.points:
            if point.sustainable and (best is None
                                      or point.offered_rate > best.offered_rate):
                best = point
        return best

    @property
    def max_sustainable_rate(self) -> float:
        """Max sustainable req/s at the stated p95 SLO: the *achieved*
        rate at the knee (0.0 when nothing was sustainable)."""
        knee = self.knee
        return knee.achieved_rate if knee is not None else 0.0

    def check(self) -> None:
        """Raise ``ValueError`` unless the points are one monotone sweep
        through the knee: a sweep that never crossed it measured nothing."""
        rates = [p.offered_rate for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("offered rates must be a strictly increasing "
                             "(monotone) sweep")
        if not any(p.sustainable for p in self.points):
            raise ValueError("no sustainable point: lower the starting rate")
        if all(p.sustainable for p in self.points):
            raise ValueError("never crossed the knee: raise max_points or "
                             "the load factor")

    def as_dict(self) -> Dict[str, Any]:
        knee = self.knee
        return {
            "slo_p95": self.slo_p95,
            "target_attainment": self.target_attainment,
            "max_sustainable_req_s": self.max_sustainable_rate,
            "knee_offered_req_s": knee.offered_rate if knee else 0.0,
            "points": [p.as_dict() for p in self.points],
        }


def run_load_point(cluster_factory: Callable[[int], Any], rate: float,
                   duration: float, seed: int = 0,
                   classes: Optional[Sequence[RequestClass]] = None,
                   process: str = "poisson",
                   process_kwargs: Optional[Dict[str, Any]] = None,
                   pool_size: int = 32, queue_limit: int = 256,
                   n_users: int = 1_000_000,
                   target_attainment: float = 0.95,
                   max_events: int = 50_000_000) -> Tuple[LoadPoint, Any]:
    """Run one offered-load point on a fresh cluster; returns the point
    and the cluster it ran on (for metrics/event inspection)."""
    classes = list(classes) if classes is not None else default_kv_classes()
    cluster = cluster_factory(seed)
    rng = random.Random(f"openloop:{seed}:arrivals:{rate:g}")
    proc = make_process(process, rate, rng, **(process_kwargs or {}))
    driver = OpenLoopDriver(cluster, proc, classes, seed=seed,
                            n_users=n_users, pool_size=pool_size,
                            queue_limit=queue_limit)
    drained = driver.drive(duration, max_events=max_events)
    summary = driver.summary()
    attainment = summary["attainment"] if drained else 0.0
    point = LoadPoint(
        offered_rate=rate,
        duration=duration,
        offered=summary["offered"],
        completed=summary["completed"],
        timed_out=summary["timed_out"],
        shed=summary["shed"],
        errors=summary["errors"],
        achieved_rate=summary["achieved_rate"],
        p95=summary["p95"],
        attainment=attainment,
        sustainable=attainment >= target_attainment,
    )
    return point, cluster


def walk_to_knee(cluster_factory: Callable[[int], Any], start_rate: float,
                 duration: float, seed: int = 0, factor: float = 2.0,
                 max_points: int = 8, refine: int = 1,
                 **point_kwargs: Any) -> LoadCurve:
    """Walk offered load up geometrically until the SLO breaks, then
    optionally bisect (geometric midpoint) between the last sustainable
    and first unsustainable rates.  The returned curve is sorted by
    offered rate, so it reads as one monotone sweep through the knee."""
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor!r}")
    classes = point_kwargs.get("classes") or default_kv_classes()
    point_kwargs["classes"] = classes
    curve = LoadCurve(slo_p95=max(c.slo_p95 for c in classes),
                      target_attainment=point_kwargs.get("target_attainment",
                                                         0.95))
    lo: Optional[float] = None   # highest sustainable rate seen
    hi: Optional[float] = None   # lowest unsustainable rate seen
    rate = start_rate
    for _ in range(max_points):
        point, _cluster = run_load_point(cluster_factory, rate, duration,
                                         seed=seed, **point_kwargs)
        curve.points.append(point)
        if point.sustainable:
            lo = rate
            rate *= factor
        else:
            hi = rate
            break
    for _ in range(refine):
        if lo is None or hi is None:
            break
        mid = math.sqrt(lo * hi)
        if hi / lo < 1.1:
            break
        point, _cluster = run_load_point(cluster_factory, mid, duration,
                                         seed=seed, **point_kwargs)
        curve.points.append(point)
        if point.sustainable:
            lo = mid
        else:
            hi = mid
    curve.points.sort(key=lambda p: p.offered_rate)
    return curve
