"""The declarative fault-plan DSL.

A :class:`FaultPlan` is an immutable composition of fault *terms*, each a
frozen dataclass naming what goes wrong, where, and over which simulated
time window.  Plans are data: they serialize to JSON (for reports and
``run --plan``), compare by value (so the shrinker can deduplicate
candidates), and say which replicas they make Byzantine (so the invariant
checkers know whose word still counts).

Terms and what they model:

- :class:`ReplicaFault` — attach a named Byzantine behavior from
  :mod:`repro.bft.faults` to one replica over a window;
- :class:`PartitionFault` — isolate a group of replicas from every other
  node (replicas *and* clients) over a window;
- :class:`LossFault` / :class:`DelaySpikeFault` — network-wide chaos: a
  drop-probability burst or an added-latency spike over a window;
- :class:`CrashFault` — fail-stop a replica (optionally restarting it);
- :class:`RecoveryFault` — trigger proactive recovery at a point in time;
- :class:`BackendFault` — wrap a service replica's off-the-shelf backend
  in one of the ageing wrappers from :mod:`repro.nfs.backends.faulty`;
- :class:`EdgePartitionFault` — cut the edge tier off from the core,
  forcing its consistency-mode ladder to degrade.

``start``/``stop`` are simulated seconds from the trial start; ``stop``
of ``None`` means the fault lasts for the whole trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional, Tuple, Type

import json

from repro.bft.faults import BEHAVIORS
from repro.nfs.backends.faulty import AGEING_BACKENDS

Params = Tuple[Tuple[str, Any], ...]


def _params(params) -> Params:
    """Normalize a dict/iterable of pairs into a sorted hashable tuple."""
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(tuple(pair) for pair in params)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ReplicaFault:
    """Replica ``replica`` runs ``behavior`` during [start, stop)."""

    replica: int
    behavior: str
    params: Params = ()
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="replica", init=False, repr=False)

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}; "
                             f"known: {tuple(BEHAVIORS)}")
        object.__setattr__(self, "params", _params(self.params))

    def describe(self) -> str:
        window = _window(self.start, self.stop)
        return f"replica{self.replica}:{self.behavior}{window}"


@dataclass(frozen=True)
class PartitionFault:
    """Replicas ``replicas`` cut off from everyone else during the window."""

    replicas: Tuple[int, ...]
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="partition", init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "replicas",
                           tuple(sorted(set(int(r) for r in self.replicas))))
        if not self.replicas:
            raise ValueError("partition needs at least one replica")

    def describe(self) -> str:
        group = ",".join(f"replica{r}" for r in self.replicas)
        return f"partition[{group}]{_window(self.start, self.stop)}"


@dataclass(frozen=True)
class LossFault:
    """Every link drops messages with probability ``rate`` in the window."""

    rate: float
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="loss", init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.rate}")

    def describe(self) -> str:
        return f"loss({self.rate:g}){_window(self.start, self.stop)}"


@dataclass(frozen=True)
class DelaySpikeFault:
    """Every link gains ``extra_latency`` seconds in the window."""

    extra_latency: float
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="delay_spike", init=False, repr=False)

    def __post_init__(self):
        if self.extra_latency <= 0:
            raise ValueError("delay spike needs extra_latency > 0")

    def describe(self) -> str:
        return (f"delay_spike({self.extra_latency:g}s)"
                f"{_window(self.start, self.stop)}")


@dataclass(frozen=True)
class CrashFault:
    """Replica fail-stops at ``start``; ``stop`` restarts it (None: down
    for good)."""

    replica: int
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="crash", init=False, repr=False)

    def describe(self) -> str:
        return f"crash[replica{self.replica}]{_window(self.start, self.stop)}"


@dataclass(frozen=True)
class RecoveryFault:
    """Proactive recovery of one replica triggered at ``start``."""

    replica: int
    start: float = 0.0
    stop: Optional[float] = field(default=None, init=False, repr=False)
    kind: str = field(default="recovery", init=False, repr=False)

    def describe(self) -> str:
        return f"recovery[replica{self.replica}]@{self.start:g}s"


@dataclass(frozen=True)
class BackendFault:
    """Wrap one replica's service backend in an ageing wrapper during
    [start, stop); at ``stop`` the wrapper goes benign (a ``stop`` of
    None leaves rejuvenation to proactive recovery)."""

    replica: int
    fault: str
    params: Params = ()
    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="backend", init=False, repr=False)

    def __post_init__(self):
        if self.fault not in AGEING_BACKENDS:
            raise ValueError(f"unknown backend fault {self.fault!r}; "
                             f"known: {tuple(AGEING_BACKENDS)}")
        object.__setattr__(self, "params", _params(self.params))

    def describe(self) -> str:
        return (f"backend[replica{self.replica}]:{self.fault}"
                f"{_window(self.start, self.stop)}")


@dataclass(frozen=True)
class EdgePartitionFault:
    """The edge tier cut off from the core (replicas *and* clients)
    during [start, stop) — the canonical trigger for the edge's
    graceful-degradation ladder.  Requires a trial built with an edge
    tier (the builder records the edge's node ids on the cluster)."""

    start: float = 0.0
    stop: Optional[float] = None
    kind: str = field(default="edge_partition", init=False, repr=False)

    def describe(self) -> str:
        return f"edge_partition{_window(self.start, self.stop)}"


def _window(start: float, stop: Optional[float]) -> str:
    if start == 0.0 and stop is None:
        return ""
    end = "∞" if stop is None else f"{stop:g}"
    return f"@[{start:g},{end})s"


#: Each term's own ``kind`` default names it in a plan's JSON.
FAULT_TYPES: Dict[str, Type] = {cls.kind: cls for cls in (
    ReplicaFault, PartitionFault, LossFault, DelaySpikeFault, CrashFault,
    RecoveryFault, BackendFault, EdgePartitionFault)}


def fault_to_dict(fault) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": fault.kind}
    for f in fields(fault):
        if f.name == "kind" or not f.init:
            continue
        value = getattr(fault, f.name)
        if f.name == "params":
            value = [list(pair) for pair in value]
        elif f.name == "replicas":
            value = list(value)
        out[f.name] = value
    return out


def fault_from_dict(data: Dict[str, Any]):
    data = dict(data)
    kind = data.pop("kind")
    cls = FAULT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault kind {kind!r}")
    if "params" in data:
        data["params"] = tuple(tuple(pair) for pair in data["params"])
    if "replicas" in data:
        data["replicas"] = tuple(data["replicas"])
    return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, serializable composition of fault terms."""

    faults: Tuple[Any, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.faults)

    def without(self, index: int) -> "FaultPlan":
        """The plan minus fault ``index`` — the shrinker's one move."""
        return FaultPlan(self.faults[:index] + self.faults[index + 1:])

    def byzantine_replicas(self) -> Tuple[int, ...]:
        """Replica indices whose *word* cannot be trusted: those given a
        Byzantine behavior or a corrupting/ageing backend.  Crashed,
        partitioned, or recovering replicas stay correct — they may fall
        silent, but they never lie."""
        bad = {f.replica for f in self.faults
               if f.kind in ("replica", "backend")}
        return tuple(sorted(bad))

    def describe(self) -> str:
        if not self.faults:
            return "fault-free"
        return " + ".join(f.describe() for f in self.faults)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [fault_to_dict(f) for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(tuple(fault_from_dict(f) for f in data["faults"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
