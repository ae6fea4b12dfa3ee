"""The ledger's four workloads.

Each workload is one function ``repeat(seed, size, timed) -> Repeat``:
it generates its inputs from the seed, builds a fresh deployment
(set-up), hands the driving of the load to ``timed`` — which the runner
supplies and which times exactly "first request issued to last reply
accepted / traffic drained" — and then checks the outputs.

Sizes are constants (:data:`SIZES`), never scaled to host speed: the
simulated metrics and the work counters of a repeat are a pure function
of ``(workload, size, seed)`` and must read the same on every machine.

Why these four (each stresses layers the others leave idle):

``kv_write``
    The ordered three-phase path and nothing else: ``bft.replica``,
    ``bft.messages``, ``crypto``, ``encoding`` and ``sim`` do all the
    host work; ``base``, ``service`` and the wrappers do none.
``kv_read_mostly``
    The same layers used differently: reads skip ordering and wait for
    2f+1 unordered replies; a write-path gain bought with per-reply or
    client-side cost shows as a loss here.
``basefs_andrew``
    The paper's headline workload over four different vendor backends,
    with the single-node NFS-std run on the same inputs as baseline;
    batches of one (latency-bound), and the only workload where ``nfs``,
    ``encoding.xdr``, ``base`` and ``service.kernel`` do work.
``sql_faults``
    Open loop: requests keep arriving on schedule while a replica is
    isolated, the primary crashes and a replica proactively recovers,
    so a stall is charged to the requests that were due in it.  View
    change, state transfer and recovery do work nowhere else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import struct
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from repro.bft.statemachine import InMemoryStateManager
from repro.encoding.canonical import canonical, decanonical
from repro.nfs.client import NfsClient
from repro.nfs.protocol import FileType
from repro.sim.metrics import Metrics
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.openloop import (OpenLoopDriver, PoissonArrivals,
                                      RequestClass)

from benchmarks.ledger import adapter

class Window(NamedTuple):
    """Host clocks of one timed window."""

    wall: float          # seconds of perf_counter
    cpu: float           # seconds of process_time
    calibration: float   # seconds the runner's calibration loop took beside it


#: ``timed(drive)`` runs ``drive()`` as the timed window.
Timed = Callable[[Callable[[], None]], Window]


@dataclass
class Repeat:
    """What one repeat of a workload measured."""

    seed: int
    attempted: int                 # client operations issued or offered
    accepted: int                  # ... accepted with a correct reply
    failed: int                    # errors + timeouts + shed + bad replies
    window: Window
    sim_seconds: float             # simulated length of the window
    latency_p50: float             # simulated seconds
    latency_p99: float
    latency_samples: int
    metrics: Optional[Metrics]     # the group's registry at window end
    counters: Dict[str, float]     # exact work read from public attributes
    scoped: Dict[str, float]       # simulated metrics only this workload has
    fingerprint: str
    problems: List[str] = field(default_factory=list)


def fingerprint(params: Dict[str, Any], stream: Iterable[bytes]) -> str:
    """SHA-256 over the deployment parameters and the input stream."""
    h = hashlib.sha256(json.dumps(params, sort_keys=True,
                                  separators=(",", ":")).encode())
    for item in stream:
        h.update(len(item).to_bytes(4, "big"))
        h.update(item)
    return h.hexdigest()


def _window_counters(scheduler, network, before: Tuple[int, ...],
                     replicas) -> Dict[str, float]:
    events, msgs, nbytes, dropped = before
    return {
        "events": scheduler.events_run - events,
        "msgs": network.messages_sent - msgs,
        "bytes": network.bytes_sent - nbytes,
        "dropped": network.messages_dropped - dropped,
        "views": max(r.view for r in replicas),
    }


def _mark(scheduler, network) -> Tuple[int, ...]:
    return (scheduler.events_run, network.messages_sent, network.bytes_sent,
            network.messages_dropped)


def _snapshot(metrics: Metrics) -> Metrics:
    copy = Metrics()
    copy.merge(metrics)
    return copy


def _request_latency(metrics: Metrics) -> Tuple[float, float, int]:
    hist = metrics.histogram("phase.request_to_reply")
    return hist.percentile(50), hist.percentile(99), hist.count


# -- kv_write / kv_read_mostly --------------------------------------------------

KV_CLIENTS = 4
put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def _kv_plans(name: str, seed: int, per_client: int, read_share: float,
              slots: int) -> List[List[Tuple[int, Optional[bytes], bytes]]]:
    """Per client, ``(slot, value written or None for a read, op)`` in
    issue order."""
    rng = random.Random(f"ledger:{name}:{seed}")
    plans = []
    for c in range(KV_CLIENTS):
        plan: List[Tuple[int, Optional[bytes], bytes]] = []
        for i in range(per_client):
            slot = rng.randrange(slots)
            if rng.random() < read_share:
                plan.append((slot, None, get(slot)))
            else:
                value = b"c%d-%d" % (c, i)
                plan.append((slot, value, put(slot, value)))
        plans.append(plan)
    return plans


class _ClosedLoopClient:
    """Issues its plan one operation at a time, the next on acceptance."""

    __slots__ = ("client", "plan", "results", "remaining")

    def __init__(self, client, plan, remaining: List[int]):
        self.client = client
        self.plan = plan
        self.results: List[bytes] = []
        self.remaining = remaining

    def issue(self) -> None:
        _, value, op = self.plan[len(self.results)]
        self.client.invoke(op, self.accepted, value is None)

    def accepted(self, result: bytes) -> None:
        self.results.append(result)
        self.remaining[0] -= 1
        if len(self.results) < len(self.plan):
            self.issue()


def _kv_repeat(name: str, read_share: float, seed: int, per_client: int,
               timed: Timed) -> Repeat:
    params = dict(adapter.PARAMS["kv"], workload=name, seed=seed,
                  clients=KV_CLIENTS, per_client=per_client,
                  read_share=read_share)
    plans = _kv_plans(name, seed, per_client, read_share, params["slots"])
    inputs = fingerprint(params, (op for plan in plans for _, _, op in plan))
    cluster = adapter.kv_group(seed)
    remaining = [KV_CLIENTS * per_client]
    loops = [_ClosedLoopClient(adapter.kv_client(cluster, f"client{c}"),
                               plan, remaining)
             for c, plan in enumerate(plans)]
    scheduler, network = cluster.scheduler, cluster.network

    def drive() -> None:
        for loop in loops:
            loop.issue()
        if not cluster.run_until(lambda: remaining[0] == 0):
            raise RuntimeError(f"{name}: the closed loop did not complete")

    before, sim_start = _mark(scheduler, network), scheduler.now
    window = timed(drive)
    sim_seconds = scheduler.now - sim_start
    metrics = _snapshot(cluster.metrics)
    counters = _window_counters(scheduler, network, before, cluster.replicas)

    # Output checks.  Let in-flight commits land, then: the four replicas
    # agree on the final state and on the last checkpoint they all took,
    # every write was acknowledged, and every read returned the initial
    # value or one that a write to that slot carried.
    cluster.run(0.1)
    problems = []
    if len({r.state.tree.root_digest for r in cluster.replicas}) != 1:
        problems.append("replicas disagree on the final state root")
    last = min(r.checkpoint_history[-1][0] for r in cluster.replicas)
    roots = {root for r in cluster.replicas
             for seq, root in r.checkpoint_history if seq == last}
    if last == 0 or len(roots) != 1:
        problems.append(f"no agreed checkpoint root at seq {last}")
    written: Dict[int, set] = {}
    for plan in plans:
        for slot, value, _ in plan:
            if value is not None:
                written.setdefault(slot, {b""}).add(value)
    bad = sum(result not in ({b"ok"} if value is not None
                             else written.get(slot, {b""}))
              for loop in loops
              for (slot, value, _), result in zip(loop.plan, loop.results))
    if bad:
        problems.append(f"{bad} replies no accepted write can explain")
    attempted = KV_CLIENTS * per_client
    p50, p99, samples = _request_latency(metrics)
    return Repeat(seed=seed, attempted=attempted, accepted=attempted - bad,
                  failed=bad, window=window,
                  sim_seconds=sim_seconds, latency_p50=p50, latency_p99=p99,
                  latency_samples=samples, metrics=metrics, counters=counters,
                  scoped={}, fingerprint=inputs, problems=problems)


def kv_write(seed: int, size: int, timed: Timed) -> Repeat:
    return _kv_repeat("kv_write", 0.0, seed, size, timed)


def kv_read_mostly(seed: int, size: int, timed: Timed) -> Repeat:
    return _kv_repeat("kv_read_mostly", 0.9, seed, size, timed)


# -- basefs_andrew ---------------------------------------------------------------

#: Generous, so client caches stay warm within a phase; the Andrew driver
#: expires them between phases (same choice as ``harness.experiments``).
ATTR_TTL = 30.0


class _RecordingFs:
    """Stands in for ``NfsClient`` to record what ``AndrewBenchmark``
    asks of a file system, in issue order, without simulating one."""

    def __init__(self) -> None:
        self.calls: List[bytes] = []
        self.api_calls = 0
        self.calls_issued = 0
        self.transport = self
        self.now = 0.0
        self._files: Dict[str, bytes] = {}
        self._dirs: Dict[str, List[str]] = {"": []}

    def _log(self, *parts: Any) -> None:
        self.calls.append(repr(parts).encode())

    def _api(self, *parts: Any) -> None:
        self.api_calls += 1
        self._log(*parts)

    def charge(self, seconds: float) -> None:
        self._log("charge", seconds)

    def drop_caches(self) -> None:
        self._log("drop_caches")

    def _link(self, path: str) -> None:
        parent, _, name = path.rstrip("/").rpartition("/")
        self._dirs[parent].append(name)

    def mkdir(self, path: str) -> None:
        self._api("mkdir", path)
        self._link(path)
        self._dirs[path] = []

    def write_file(self, path: str, data: bytes) -> None:
        self._api("write_file", path, hashlib.sha256(data).hexdigest())
        if path not in self._files:
            self._link(path)
        self._files[path] = data

    def read_file(self, path: str) -> bytes:
        self._api("read_file", path)
        return self._files[path]

    def getattr(self, path: str) -> None:
        self._api("getattr", path)

    def listdir(self, path: str) -> List[str]:
        self._api("listdir", path)
        return list(self._dirs[path])


def _andrew_stream(config: AndrewConfig) -> Tuple[str, int]:
    """(digest of the API-call stream, number of API calls) of the
    Andrew run.  The stream does not depend on the seed; the seed only
    moves network jitter."""
    fs = _RecordingFs()
    AndrewBenchmark(fs, config).run()
    return fingerprint({}, fs.calls), fs.api_calls


def _read_tree(fs: NfsClient) -> Dict[str, Tuple[int, str]]:
    """Every path under the root with its size and content digest, read
    through the client with cold caches."""
    fs.drop_caches()
    tree: Dict[str, Tuple[int, str]] = {}
    pending = [""]
    while pending:
        directory = pending.pop()
        for name in sorted(fs.listdir(directory or "/")):
            path = f"{directory}/{name}"
            attr = fs.getattr(path)
            if attr.ftype == FileType.NFDIR:
                tree[path] = (-1, "")
                pending.append(path)
            else:
                body = fs.read_file(path)
                tree[path] = (attr.size, hashlib.sha256(body).hexdigest())
    return tree


def basefs_andrew(seed: int, size: int, timed: Timed) -> Repeat:
    config = AndrewConfig(copies=size)
    stream, api_calls = _andrew_stream(config)
    params = dict(adapter.PARAMS["basefs"], workload="basefs_andrew",
                  seed=seed, copies=size, attr_ttl=ATTR_TTL, stream=stream)
    inputs = fingerprint(params, ())

    # Set-up: the single-node baseline on the same inputs.
    std = adapter.nfs_std(seed)
    std_fs = NfsClient(std.client, attr_ttl=ATTR_TTL)
    std_result = AndrewBenchmark(std_fs, config).run()
    std_tree = _read_tree(std_fs)

    deployment = adapter.basefs(seed)
    fs = NfsClient(deployment.client, attr_ttl=ATTR_TTL)
    bench = AndrewBenchmark(fs, config)
    scheduler, network = deployment.scheduler, deployment.network
    deployment.cluster.tracer.clear()
    results = []
    before, sim_start = _mark(scheduler, network), scheduler.now
    window = timed(lambda: results.append(bench.run()))
    sim_seconds = scheduler.now - sim_start
    result = results[0]
    metrics = _snapshot(deployment.metrics)
    counters = _window_counters(scheduler, network, before,
                                deployment.replicas)
    counters["nfs_wire_ops"] = result.ops_issued
    counters["nfs_api_calls"] = api_calls

    problems = []
    tree = _read_tree(fs)
    if not std_tree or tree != std_tree:
        problems.append("the replicated tree differs from the NFS-std tree")
    if result.ops_issued != std_result.ops_issued:
        problems.append("BASEFS and NFS-std issued different op counts")
    attempted = result.ops_issued
    failed = attempted if problems else 0
    p50, p99, samples = _request_latency(metrics)
    return Repeat(seed=seed, attempted=attempted, accepted=attempted - failed,
                  failed=failed, window=window,
                  sim_seconds=sim_seconds, latency_p50=p50, latency_p99=p99,
                  latency_samples=samples, metrics=metrics, counters=counters,
                  scoped={"sim_overhead_ratio":
                          result.total / std_result.total},
                  fingerprint=inputs, problems=problems)


# -- sql_faults ------------------------------------------------------------------

SQL_TABLE = "accounts"
SQL_PRELOAD = 400
SQL_RATE = 800.0                  # Poisson arrivals per simulated second
SQL_MIX = (("select", 0.50), ("update", 0.35), ("insert", 0.15))
SQL_POOL, SQL_QUEUE, SQL_TIMEOUT = 64, 2048, 2.0
SQL_SLO_P95 = 0.05                # only labels the driver's own SLO counters
#: Seconds after the preload, as fractions of the run length (6 s at full
#: size): isolate replica 3, heal, crash the view-0 primary, restart it,
#: proactively recover replica 2; the door closes at 1.0.
SQL_FAULTS = {"isolate": 0.5 / 6, "heal": 1.5 / 6, "crash": 2.5 / 6,
              "restart": 3.5 / 6, "recover": 4.5 / 6}
SQL_PROBE = 0.001                 # simulated seconds between probe ticks


class _ReplyLog:
    """Stands between the open-loop driver and its pool of protocol
    clients, keeping every ``(op, reply)`` for the output check — the
    driver itself only looks for the kernel's error prefix."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.scheduler = cluster.scheduler
        self.metrics = cluster.metrics
        self.replies: List[Tuple[bytes, bytes]] = []

    def add_client(self, name: str) -> "_LoggedClient":
        return _LoggedClient(self._cluster.add_client(name).client,
                             self.replies)


class _LoggedClient:
    def __init__(self, inner, replies: List[Tuple[bytes, bytes]]) -> None:
        self.client = self          # the driver asks for ``.client``
        self._inner = inner
        self._replies = replies

    def invoke(self, op: bytes, callback, read_only: bool = False) -> int:
        def replied(result: bytes) -> None:
            self._replies.append((op, result))
            callback(result)
        return self._inner.invoke(op, replied, read_only)

    def cancel(self) -> bool:
        return self._inner.cancel()


def _bad_sql_replies(replies: List[Tuple[bytes, bytes]],
                     issued: List[bytes]) -> int:
    """Replies the abstract specification does not allow: a select must
    return the row's opening value or one some update to it carried, an
    update must report a changed row, an insert must be acknowledged."""
    allowed: Dict[int, set] = {}
    for op in issued:
        kind, _, *args = decanonical(op)
        if kind == "update":
            allowed.setdefault(args[0], set()).add(args[1][1])
    bad = 0
    for op, raw in replies:
        kind, _, *args = decanonical(op)
        reply = decanonical(raw)
        if kind == "select":
            key = args[0]
            values = allowed.get(key, set()) | {f"opening-{key}"}
            ok = (len(reply) == 2 and reply[0] == "OK"
                  and reply[1][0] == key and reply[1][1] in values)
        elif kind == "update":
            ok = reply == ("OK", True)
        else:
            ok = len(reply) == 3 and reply[0] == "OK"
        bad += not ok
    return bad


def sql_faults(seed: int, size: int, timed: Timed) -> Repeat:
    """``size`` is the run length in tenths of a simulated second."""
    duration = size / 10.0
    at = {name: share * duration for name, share in SQL_FAULTS.items()}
    params = dict(adapter.PARAMS["sql"], workload="sql_faults", seed=seed,
                  duration=duration, rate=SQL_RATE, mix=SQL_MIX,
                  preload=SQL_PRELOAD, pool=SQL_POOL, queue=SQL_QUEUE,
                  timeout=SQL_TIMEOUT, faults=at, probe=SQL_PROBE)

    deployment = adapter.sql_group(seed)
    cluster, client = deployment.cluster, deployment.client
    scheduler, network = deployment.scheduler, deployment.network
    replicas = cluster.replicas
    client.create_table(SQL_TABLE, ("id", "balance"), "id")
    for key in range(SQL_PRELOAD):
        client.insert(SQL_TABLE, (key, f"opening-{key}"))

    issued: List[bytes] = []      # the op stream, in issue order
    fresh = itertools.count(SQL_PRELOAD)

    def maker(build: Callable[[random.Random, int], tuple], read_only: bool):
        def make_op(rng: random.Random, user: int) -> Tuple[bytes, bool]:
            op = canonical(build(rng, user))
            issued.append(op)
            return op, read_only
        return make_op

    def update(rng: random.Random, user: int) -> tuple:
        key = rng.randrange(SQL_PRELOAD)
        return ("update", SQL_TABLE, key, (key, f"user-{user}"))

    makers = {
        "select": maker(lambda rng, user: (
            "select", SQL_TABLE, rng.randrange(SQL_PRELOAD)), True),
        "update": maker(update, False),
        "insert": maker(lambda rng, user: (
            "insert", SQL_TABLE, (next(fresh), f"user-{user}")), False),
    }
    classes = [RequestClass(name, weight, makers[name], SQL_SLO_P95,
                            SQL_TIMEOUT) for name, weight in SQL_MIX]
    log = _ReplyLog(cluster)
    driver = OpenLoopDriver(
        log, PoissonArrivals(SQL_RATE, random.Random(f"arrivals:{seed}")),
        classes, seed=seed, pool_size=SQL_POOL, queue_limit=SQL_QUEUE,
        label="sqlfaults", record_arrivals=True)

    lagger, primary, recovered = replicas[3], replicas[0], replicas[2]
    others = [r for r in replicas if r is not lagger]
    cut = [(lagger.node_id, node) for node in list(network.node_ids())
           if node != lagger.node_id]

    def isolate() -> None:
        for a, b in cut:
            network.partition(a, b)

    def heal() -> None:
        for a, b in cut:
            network.heal(a, b)

    # The probe reads public attributes every simulated millisecond; its
    # events are part of the fixed input.
    probe = {"on": True, "ordered": 0, "progress_at": 0.0, "outage": 0.0,
             "caught_up_at": None}
    counter = cluster.metrics.counter_value

    def tick() -> None:
        if not probe["on"]:
            return
        now = scheduler.now - start[0]
        ordered = (counter("client.accept_tentative")
                   + counter("client.accept_committed"))
        if ordered != probe["ordered"]:
            since = probe["progress_at"]
            if (at["crash"] - 0.01 <= since < at["recover"]
                    and now - since > probe["outage"]):
                probe["outage"] = now - since
            probe["ordered"], probe["progress_at"] = ordered, now
        if (probe["caught_up_at"] is None and now >= at["heal"]
                and not lagger.transfer.active
                and lagger.last_executed >= max(r.last_stable
                                                for r in others)):
            probe["caught_up_at"] = now
        scheduler.schedule(SQL_PROBE, tick)

    def settled() -> bool:
        return (driver.drained and bool(recovered.recovery.records)
                and not recovered.recovery.recovering)

    start = [0.0]

    def drive() -> None:
        start[0] = scheduler.now
        scheduler.schedule(at["isolate"], isolate)
        scheduler.schedule(at["heal"], heal)
        scheduler.schedule(at["crash"], primary.crash)
        scheduler.schedule(at["restart"], primary.restart_node)
        scheduler.schedule(at["recover"], recovered.recovery.start_recovery)
        scheduler.schedule(SQL_PROBE, tick)
        driver.start(duration)
        if not scheduler.run_until_idle_or(settled):
            raise RuntimeError("sql_faults: traffic never drained")

    cluster.tracer.clear()
    before = _mark(scheduler, network)
    window = timed(drive)
    probe["on"] = False
    sim_seconds = scheduler.now - start[0]
    metrics = _snapshot(cluster.metrics)
    counters = _window_counters(scheduler, network, before, replicas)

    params["arrivals"] = len(driver.arrival_log)
    inputs = fingerprint(params, [struct.pack(">d", t - start[0])
                                  for t in driver.arrival_log] + issued)

    # Output checks: the faults fired, no two replicas that executed the
    # same prefix disagree on the abstract state — across the two engine
    # kinds — with at least 2f+1 of them up to date (a replica that came
    # back after the last checkpoint may still lag), and no accepted
    # insert was lost.
    cluster.run(0.5)
    problems = []
    states: Dict[int, set] = {}
    for r in replicas:
        states.setdefault(r.last_executed, set()).add(hashlib.sha256(b"".join(
            r.state.upcalls.get_obj(i) for i in range(r.state.size))).digest())
    if any(len(digests) > 1 for digests in states.values()):
        problems.append("replicas at the same sequence number disagree on "
                        "the abstract state")
    current = sum(r.last_executed == max(states) for r in replicas)
    if current < cluster.config.quorum:
        problems.append(f"only {current} replicas are up to date")
    inserts = driver.stats["insert"]
    expected_rows = SQL_PRELOAD + inserts.completed - inserts.errors
    rows = client.row_count(SQL_TABLE)
    if rows != expected_rows:
        problems.append(f"row_count {rows}, expected {expected_rows}")
    recovery = recovered.recovery.records
    fetched = metrics.counter_value("transfer.objects_fetched")
    if counters["views"] < 1 or not recovery or fetched < 1:
        problems.append("a fault did not fire: views=%d recoveries=%d "
                        "objects fetched=%d" % (counters["views"],
                                                len(recovery), fetched))
    if probe["caught_up_at"] is None:
        problems.append("the isolated replica never caught up")

    bad = _bad_sql_replies(log.replies, issued)
    attempted = driver.offered
    failed = driver.timed_out + driver.shed + driver.errors + bad
    if problems:                  # a failed state check condemns them all
        failed = attempted
    if bad:
        problems.append(f"{bad} replies the specification does not allow")
    scoped = {
        "sim_outage_s": probe["outage"],
        "sim_catchup_s": (probe["caught_up_at"] or 0.0) - at["heal"],
        "sim_recovery_s": recovery[0].total if recovery else 0.0,
    }
    return Repeat(seed=seed, attempted=attempted, accepted=attempted - failed,
                  failed=failed, window=window,
                  sim_seconds=sim_seconds,
                  latency_p50=driver.latency_percentile(50),
                  latency_p99=driver.latency_percentile(99),
                  latency_samples=driver.offered - driver.shed,
                  metrics=metrics, counters=counters, scoped=scoped,
                  fingerprint=inputs, problems=problems)


# -- the table -------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[int, int, Timed], Repeat]] = {
    "kv_write": kv_write,
    "kv_read_mostly": kv_read_mostly,
    "basefs_andrew": basefs_andrew,
    "sql_faults": sql_faults,
}

#: name -> (full size, smoke size).  Full sizes make a window 1.5-2.5 s
#: on the reference machine; smoke sizes are for the self-tests.
SIZES: Dict[str, Tuple[int, int]] = {
    "kv_write": (1500, 40),         # operations per client
    "kv_read_mostly": (2000, 60),   # operations per client
    "basefs_andrew": (12, 1),       # copies of the source tree
    "sql_faults": (60, 18),         # tenths of a simulated second
}
