"""Metrics registry: counters and histograms with percentiles.

The observability substrate for the benchmark harness: protocol code
records per-phase latencies and operation counters here (via the
:class:`~repro.sim.tracing.Tracer`), and benchmarks export the registry
as JSON or render it as plain-text tables next to the paper's figures.

Everything is plain Python with deterministic behaviour: histograms keep
exact count/sum/min/max and a bounded sample buffer for percentile
estimates, overwriting deterministically once full (no RNG, so two runs
of the same seeded simulation produce identical summaries).
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Any, Dict, List, Tuple


class Histogram:
    """Latency/size distribution with exact aggregates and percentiles.

    ``count``/``sum``/``min``/``max`` are exact for every observation.
    Percentiles come from a bounded ``array('d')`` of samples (one
    unboxed double each, ``max_samples`` at most); once full, new
    observations overwrite slots round-robin, deterministically.
    """

    __slots__ = ("name", "count", "sum", "min", "max",
                 "_samples", "_max_samples")

    def __init__(self, name: str = "", max_samples: int = 65_536):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples = array("d")
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            self._samples[self.count % self._max_samples] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained sample (p in [0, 100])."""
        if not self._samples:
            return float("nan")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} outside [0, 100]")
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.6g})")


class Metrics:
    """Registry of named counters and histograms.

    Names are free-form dotted strings; the harness conventions are
    ``phase.<name>`` for protocol phase latencies, ``recovery.<name>``
    for Table-IV recovery breakdowns, and bare names for counters.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histograms_with_prefix(self, prefix: str) -> List[Tuple[str, Histogram]]:
        return sorted((name, h) for name, h in self.histograms.items()
                      if name.startswith(prefix))

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())},
        }

    def to_json(self) -> str:
        def _clean(obj):
            # JSON has no NaN/inf; export them as null.
            if isinstance(obj, float) and not math.isfinite(obj):
                return None
            if isinstance(obj, dict):
                return {k: _clean(v) for k, v in obj.items()}
            return obj
        return json.dumps(_clean(self.as_dict()), indent=2)

    def merge(self, other: "Metrics", prefix: str = "") -> None:
        """Fold another registry into this one (counters add, histogram
        aggregates and samples combine).

        ``prefix`` namespaces every incoming name (e.g. ``"shard0."``):
        sharded deployments aggregate one registry per group into a
        single report without the groups' identically-named counters and
        phase histograms colliding.  Aggregates and retained percentile
        samples are carried over unchanged — a prefixed merge into an
        empty registry preserves every percentile bit for bit.
        """
        for name, n in other.counters.items():
            self.inc(prefix + name, n)
        for name, hist in other.histograms.items():
            mine = self.histogram(prefix + name)
            offset = mine.count
            mine.count += hist.count
            mine.sum += hist.sum
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)
            # Append what fits, then overwrite round-robin exactly as
            # ``observe`` would: the i-th incoming sample is observation
            # ``offset + i + 1``, and a full buffer keeps absorbing.
            samples, cap = mine._samples, mine._max_samples
            room = cap - len(samples)
            samples.extend(hist._samples[:room])
            for i in range(room, len(hist._samples)):
                samples[(offset + i + 1) % cap] = hist._samples[i]

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()
