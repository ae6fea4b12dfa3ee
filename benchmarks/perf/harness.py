"""Fixed protocol scenarios timed against the real (wall) clock.

Each scenario builds a fresh cluster with fixed seeds, drives a fixed
amount of protocol work, and reports how long that took in *real*
seconds.  Scenarios repeat several times; the report carries p50/p95 of
the per-repeat wall time plus aggregate events/sec and requests/sec.

The scenarios cover the three hot paths the simulator spends its life in:

- ``normal_case`` — f=1 three-phase ordering with client-driven batching
  (MAC/digest work on every message hop);
- ``read_heavy`` — the fast path's headline workload: a 90/10 read/write
  closed loop where reads travel the read-only optimization and writes
  complete on tentative commit certificates (the scenario reports the
  per-path accept counts so the hit rates are part of the artifact);
- ``state_transfer`` — hierarchical fetch of a dirty partition tree
  (digest checks and per-object messages);
- ``recovery`` — one proactive recovery round: shutdown, reboot, fetch
  and check (session-key refresh plus a full state audit).

Timed repeats run after one untimed warmup repeat and with the garbage
collector paused, so the numbers measure the protocol, not allocator
warm-up or an unlucky mid-repeat GC pass.  Every closed-loop scenario
also carries the merged ``batch.size`` histogram (the adaptive batching
controller's actual output) and the report is tagged with the event
scheduler backend it ran on.

A fourth scenario, ``open_loop``, is different in kind: it runs the
open-loop traffic engine's load-sweep controller
(:mod:`repro.workloads.openloop`) against the same f=1 cluster and
reports the **maximum sustainable req/s at a stated p95 SLO** — the
knee of the latency-vs-offered-load curve — rather than a raw rate.
The sweep is seeded and runs twice per report; the harness asserts the
two curves are bit-identical before emitting them.

A fifth scenario, ``sharded_scaling``, sweeps a
:class:`~repro.service.sharding.ShardedDeployment` of the SQL service
over 1 → 2 → 4 shards on one fabric, with closed-loop clients pinned to
each shard's tables, and reports **simulated** req/s per shard count
(completed ops over simulated seconds — the quantity sharding actually
scales; wall time grows with shard count because one process simulates
every group).  Like ``open_loop`` it repeats with one seed and demands
bit-identical sweeps, using the router's per-shard rolling digest
chains as the O(1) witness that every repeat routed and observed the
same bytes.

A sixth scenario, ``edge_read``, measures the EdgeTier's headline
claim: after warming the tier with linearizable (quorum) reads and then
partitioning the edge from the core, bounded-stale serves come straight
from the lease cache — no messages, no quorum — so read throughput must
beat ``read_heavy``'s by at least :data:`EDGE_READ_MIN_SPEEDUP`.  The
validator enforces the cross-check; a rolling digest over every served
``(result, mode)`` record, compared across two identical-seed repeats,
is the determinism witness.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import time
from typing import Callable, Dict, List, Optional

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness import costs as C
from repro.harness.cluster import Cluster, build_cluster
from repro.sim.metrics import Metrics

BENCH_ID = 7
SCHEMA_VERSION = 6  # v6: no top-level event-queue tag (there is one queue)

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def _build(seed: int, **cfg_kwargs) -> Cluster:
    config = BftConfig(**cfg_kwargs)
    return build_cluster(lambda i: InMemoryStateManager(size=64),
                         config=config,
                         network_config=C.lan_network(seed),
                         costs=C.PROTOCOL_COSTS, seed=seed)


def _events_run(cluster: Cluster) -> int:
    return cluster.scheduler.events_run


# -- scenarios ----------------------------------------------------------------
#
# Each scenario fn takes (seed, scale) and returns (cluster, requests):
# the cluster it drove and how many protocol-level requests that involved.

def scenario_normal_case(seed: int, scale: int):
    """Closed-loop ordered writes from concurrent clients (batching)."""
    cluster = _build(seed, checkpoint_interval=16, batch_max=8)
    n_clients = 4
    per_client = scale
    done: Dict[str, int] = {}
    clients = []
    for c in range(n_clients):
        sync = cluster.add_client(f"client{c}", costs=C.PROTOCOL_COSTS)
        clients.append(sync.client)

    def make_cb(client, idx):
        def cb(_result):
            done[client.node_id] = done.get(client.node_id, 0) + 1
            if done[client.node_id] < per_client:
                client.invoke(put((idx + done[client.node_id]) % 16,
                                  b"w%d" % done[client.node_id]), cb)
        return cb

    for idx, client in enumerate(clients):
        client.invoke(put(idx % 16, b"w0"), make_cb(client, idx))
    ok = cluster.run_until(
        lambda: all(done.get(c.node_id, 0) >= per_client for c in clients))
    if not ok:
        raise RuntimeError("normal_case scenario did not complete")
    return cluster, n_clients * per_client


def scenario_read_heavy(seed: int, scale: int):
    """90/10 read/write closed loop over the fast path.

    Reads are issued with ``read_only=True`` and normally complete from
    a 2f+1 quorum of unordered read-only replies; the 10% writes keep
    ordered traffic (and tentative commit certificates) flowing and make
    the occasional read race a write — exercising retry and the ordered
    fallback, not just the happy path.  The op mix is a pure function of
    the seed.
    """
    cluster = _build(seed, checkpoint_interval=16, batch_max=8,
                     client_retry_timeout=0.4)
    n_clients = 4
    per_client = scale
    rng = random.Random(1_000_003 * seed + 17)
    plans: List[List[tuple]] = []
    for c in range(n_clients):
        ops = []
        for i in range(per_client):
            key = rng.randrange(16)
            if rng.random() < 0.9:
                ops.append((get(key), True))
            else:
                ops.append((put(key, b"rh%d" % i), False))
        plans.append(ops)

    done: Dict[str, int] = {}
    clients = []
    for c in range(n_clients):
        sync = cluster.add_client(f"client{c}", costs=C.PROTOCOL_COSTS)
        clients.append(sync.client)
    # Seed every key once so reads never hit an unwritten slot.
    warm = cluster.add_client("warmup", costs=C.PROTOCOL_COSTS)
    for key in range(16):
        warm.call(put(key, b"seed"))

    def make_cb(client, ops):
        def cb(_result):
            seq = done[client.node_id] = done.get(client.node_id, 0) + 1
            if seq < len(ops):
                op, read_only = ops[seq]
                client.invoke(op, cb, read_only=read_only)
        return cb

    for client, ops in zip(clients, plans):
        op, read_only = ops[0]
        client.invoke(op, make_cb(client, ops), read_only=read_only)
    ok = cluster.run_until(
        lambda: all(done.get(c.node_id, 0) >= per_client for c in clients))
    if not ok:
        raise RuntimeError("read_heavy scenario did not complete")
    return cluster, n_clients * per_client


def scenario_state_transfer(seed: int, scale: int):
    """A partitioned replica misses writes across the whole tree, then
    catches up by hierarchical state transfer."""
    cluster = _build(seed, checkpoint_interval=4)
    client = cluster.add_client("client0", costs=C.PROTOCOL_COSTS)
    lagger = cluster.replicas[3]
    requests = 0
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    # Dirty a wide slice of the tree while the lagger is cut off.
    for i in range(scale):
        client.call(put(i % 48, b"dirty%d" % i))
        requests += 1
    cluster.network.heal_all()
    for i in range(4):
        client.call(put(i % 48, b"heal%d" % i))
        requests += 1
    ok = cluster.run_until(lambda: lagger.last_executed
                           >= cluster.replicas[0].last_stable
                           and not lagger.transfer.active)
    if not ok:
        raise RuntimeError("state_transfer scenario did not complete")
    return cluster, requests


def scenario_recovery(seed: int, scale: int):
    """One proactive recovery round: shutdown, reboot, fetch-and-check."""
    cluster = _build(seed, checkpoint_interval=4, reboot_delay=0.5)
    client = cluster.add_client("client0", costs=C.PROTOCOL_COSTS)
    requests = 0
    for i in range(scale):
        client.call(put(i % 32, b"pre%d" % i))
        requests += 1
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    ok = cluster.run_until(lambda: not victim.recovery.recovering
                           and victim.recovery.records)
    if not ok:
        raise RuntimeError("recovery scenario did not complete")
    return cluster, requests


#: name -> (scenario fn, full-mode scale, quick-mode scale)
SCENARIOS: Dict[str, tuple] = {
    "normal_case": (scenario_normal_case, 150, 25),
    "read_heavy": (scenario_read_heavy, 150, 25),
    "state_transfer": (scenario_state_transfer, 40, 12),
    "recovery": (scenario_recovery, 24, 8),
}


# -- the open-loop scenario ---------------------------------------------------
#
# Unlike the closed-loop scenarios above, open_loop is a *sweep*: the
# load-sweep controller walks offered load up a geometric ladder on a
# fresh cluster per point until the p95 SLO breaks, then refines toward
# the knee.  Everything simulated is a pure function of OPEN_LOOP_SEED.

OPEN_LOOP_SEED = 0
OPEN_LOOP_SLO_P95 = 0.005          # seconds, applied to every class
OPEN_LOOP_TARGET_ATTAINMENT = 0.95
OPEN_LOOP_PROCESS = "poisson"
#: mode -> (start_rate, factor, max_points, refine, duration_seconds)
OPEN_LOOP_MODES = {
    "full": (500.0, 2.0, 7, 2, 0.5),
    "quick": (1000.0, 2.5, 5, 1, 0.2),
}


def run_open_loop(quick: bool, repeats: int = 2) -> Dict[str, object]:
    """Run the seeded load sweep ``repeats`` times and report the knee.

    Every repeat uses the same seed, so the simulated curves must agree
    bit for bit — the harness asserts it, making the CI smoke job double
    as the engine's determinism regression.  Wall-time percentiles come
    from the repeats as usual.
    """
    from repro.workloads.openloop import default_kv_classes, walk_to_knee

    start_rate, factor, max_points, refine, duration = \
        OPEN_LOOP_MODES["quick" if quick else "full"]
    classes = default_kv_classes(slo_p95=OPEN_LOOP_SLO_P95)
    walls: List[float] = []
    events_total = 0
    requests_total = 0
    curves = []
    for _ in range(repeats):
        clusters: List[Cluster] = []

        def factory(seed: int) -> Cluster:
            cluster = _build(seed, checkpoint_interval=16, batch_max=8)
            clusters.append(cluster)
            return cluster

        start = time.perf_counter()
        curve = walk_to_knee(factory, start_rate=start_rate,
                             duration=duration, seed=OPEN_LOOP_SEED,
                             factor=factor, max_points=max_points,
                             refine=refine, classes=classes,
                             target_attainment=OPEN_LOOP_TARGET_ATTAINMENT,
                             process=OPEN_LOOP_PROCESS)
        walls.append(time.perf_counter() - start)
        events_total += sum(_events_run(c) for c in clusters)
        requests_total += sum(p.completed for p in curve.points)
        curves.append(curve.as_dict())
    for other in curves[1:]:
        if other != curves[0]:
            raise RuntimeError("open_loop sweep is not deterministic: "
                               "two repeats with the same seed disagree")
    walls_sorted = sorted(walls)
    total = sum(walls)
    curve_dict = curves[0]
    return {
        "repeats": repeats,
        "scale": int(duration * 1000),
        "wall_seconds_total": total,
        "wall_seconds_p50": _percentile(walls_sorted, 0.50),
        "wall_seconds_p95": _percentile(walls_sorted, 0.95),
        "events": events_total,
        "events_per_sec": events_total / total,
        "requests": requests_total,
        "requests_per_sec": requests_total / total,
        "seed": OPEN_LOOP_SEED,
        "arrival_process": OPEN_LOOP_PROCESS,
        "slo_p95_seconds": OPEN_LOOP_SLO_P95,
        "target_attainment": OPEN_LOOP_TARGET_ATTAINMENT,
        "max_sustainable_req_s": curve_dict["max_sustainable_req_s"],
        "knee_offered_req_s": curve_dict["knee_offered_req_s"],
        "curve": curve_dict["points"],
    }


# -- the sharded-scaling scenario ---------------------------------------------
#
# Weak-scaling sweep over ShardedDeployment: every shard carries the
# same closed-loop load (clients x ops pinned to tables that hash to
# it), so simulated elapsed time stays flat while completed work grows
# with the shard count — simulated req/s should rise near-linearly.
# The determinism gate is the whole sweep, bit for bit, including the
# router's per-shard request-log digest chains.

SHARDED_SEED = 7
SHARD_COUNTS = (1, 2, 4)
SHARDED_CLIENTS_PER_SHARD = 2
#: mode -> closed-loop ops per client
SHARDED_MODES = {"full": 20, "quick": 6}


def _shard_tables(num_shards: int) -> List[str]:
    """One table name per shard, in shard order (stable digest hashing)."""
    from repro.service.sharding import stable_shard

    tables: Dict[int, str] = {}
    i = 0
    while len(tables) < num_shards:
        name = f"t{i}"
        tables.setdefault(stable_shard(name, num_shards), name)
        i += 1
    return [tables[shard] for shard in range(num_shards)]


def _sharded_point(num_shards: int, per_client: int) -> tuple:
    """One sweep point: build, load every shard, audit, measure.

    Returns ``(point_dict, deployment)`` where the point carries only
    deterministic simulated quantities (safe to compare across repeats).
    """
    from repro.encoding.canonical import canonical
    from repro.service.sharding import ShardedDeployment
    from repro.sql.service import SQL_SERVICE

    deployment = ShardedDeployment.build(
        SQL_SERVICE, num_shards,
        config=BftConfig(checkpoint_interval=16, batch_max=8),
        network_config=C.lan_network(SHARDED_SEED),
        replica_costs=[C.PROTOCOL_COSTS] * 4,
        seed=SHARDED_SEED)
    tables = _shard_tables(num_shards)
    for table in tables:
        deployment.client.create_table(table, ["id", "val"], "id")

    done: Dict[str, int] = {}
    drivers = []
    for shard_index, table in enumerate(tables):
        cluster = deployment.shards[shard_index].cluster
        for c in range(SHARDED_CLIENTS_PER_SHARD):
            sync = cluster.add_client(f"shard{shard_index}/loadgen{c}",
                                      costs=C.PROTOCOL_COSTS)
            drivers.append((sync.client, table, (c + 1) * 1_000_000))

    def make_cb(client, table, base):
        def cb(_result):
            done[client.node_id] = done.get(client.node_id, 0) + 1
            seq = done[client.node_id]
            if seq < per_client:
                client.invoke(
                    canonical(("insert", table, (base + seq, f"w{seq}"))),
                    cb)
        return cb

    sim_start = deployment.scheduler.now
    for client, table, base in drivers:
        client.invoke(canonical(("insert", table, (base, "w0"))),
                      make_cb(client, table, base))
    ok = deployment.scheduler.run_until_idle_or(
        lambda: all(done.get(client.node_id, 0) >= per_client
                    for client, _, _ in drivers))
    if not ok:
        raise RuntimeError(f"sharded_scaling point ({num_shards} shards) "
                           f"did not complete")
    sim_seconds = deployment.scheduler.now - sim_start
    completed = sum(done.values())
    # Audit through the router: every shard holds exactly its clients'
    # rows (this also extends the digest chains deterministically).
    counts = [deployment.client.row_count(table) for table in tables]
    expected = SHARDED_CLIENTS_PER_SHARD * per_client
    if counts != [expected] * num_shards:
        raise RuntimeError(f"sharded_scaling audit failed: per-shard row "
                           f"counts {counts} != {expected}")
    point = {
        "shards": num_shards,
        "requests": completed,
        "sim_seconds": sim_seconds,
        "sim_req_s": completed / sim_seconds,
        "ops_routed": list(deployment.router.ops_routed),
        "shard_log": [d.hex() for d in deployment.router.shard_logs],
    }
    return point, deployment


def run_sharded_scaling(quick: bool, repeats: int = 2) -> Dict[str, object]:
    """Sweep shard counts, ``repeats`` times with one seed.

    Every repeat must reproduce the sweep bit for bit — simulated
    seconds, rates, routing counts, and the per-shard request-log
    digest chains — so the CI smoke job doubles as the sharding
    layer's determinism regression.
    """
    per_client = SHARDED_MODES["quick" if quick else "full"]
    walls: List[float] = []
    events_total = 0
    requests_total = 0
    sweeps = []
    for _ in range(repeats):
        start = time.perf_counter()
        points = []
        for num_shards in SHARD_COUNTS:
            point, deployment = _sharded_point(num_shards, per_client)
            points.append(point)
            events_total += _events_run(deployment)
            requests_total += point["requests"]
        walls.append(time.perf_counter() - start)
        sweeps.append(points)
    for other in sweeps[1:]:
        if other != sweeps[0]:
            raise RuntimeError("sharded_scaling sweep is not deterministic: "
                               "two repeats with the same seed disagree")
    sweep = sweeps[0]
    scaling = sweep[-1]["sim_req_s"] / sweep[0]["sim_req_s"]
    walls_sorted = sorted(walls)
    total = sum(walls)
    return {
        "repeats": repeats,
        "scale": per_client,
        "wall_seconds_total": total,
        "wall_seconds_p50": _percentile(walls_sorted, 0.50),
        "wall_seconds_p95": _percentile(walls_sorted, 0.95),
        "events": events_total,
        "events_per_sec": events_total / total,
        "requests": requests_total,
        "requests_per_sec": requests_total / total,
        "seed": SHARDED_SEED,
        "shard_counts": list(SHARD_COUNTS),
        "clients_per_shard": SHARDED_CLIENTS_PER_SHARD,
        "ops_per_client": per_client,
        "scaling_factor": scaling,
        "sweep": sweep,
    }


# -- the edge-read scenario ---------------------------------------------------
#
# Warm the EdgeTier with linearizable reads (full quorum protocol), cut
# the edge off from the core, then serve a large batch of bounded-stale
# reads from the lease cache.  Cache serves move no messages and burn no
# simulated time, so this measures the edge serving path itself — the
# speedup over read_heavy is the subsystem's reason to exist, and the
# validator refuses the report if it is not there.

EDGE_READ_SEED = 3
EDGE_READ_SLOTS = 16
EDGE_READ_DELTA = 60.0             # lease ttl: every degraded serve is a hit
#: mode -> (warm linearizable reads, degraded cache-hit reads)
EDGE_READ_MODES = {"full": (64, 4000), "quick": (16, 800)}
#: edge_read req/s must beat read_heavy req/s by at least this factor.
EDGE_READ_MIN_SPEEDUP = 2.0


def _edge_read_once(warm_reads: int, degraded_reads: int):
    """One edge_read repeat; returns (cluster, requests, digest chain)."""
    from repro.crypto.digest import digest as _digest
    from repro.edge import BOUNDED_STALE, LINEARIZABLE, EdgeTier

    cluster = _build(EDGE_READ_SEED, checkpoint_interval=16, batch_max=8)
    client = cluster.add_client("warmup", costs=C.PROTOCOL_COSTS)
    for key in range(EDGE_READ_SLOTS):
        client.call(put(key, b"edge%d" % key))
    tier = EdgeTier.for_cluster(cluster, delta=EDGE_READ_DELTA,
                                read_timeout=0.05, failure_threshold=1,
                                cooldown=3600.0, costs=C.PROTOCOL_COSTS)
    for i in range(warm_reads):
        reply = tier.read(get(i % EDGE_READ_SLOTS))
        if reply.mode != LINEARIZABLE:
            raise RuntimeError("edge_read warmup left the linearizable path")
    edge_ids = set(tier.edge_node_ids)
    for edge_id in sorted(edge_ids):
        for other in cluster.network.node_ids():
            if other not in edge_ids:
                cluster.network.partition(edge_id, other)
    for i in range(degraded_reads):
        reply = tier.read(get(i % EDGE_READ_SLOTS))
        if reply.mode != BOUNDED_STALE:
            raise RuntimeError(f"edge_read degraded serve {i} came back "
                               f"{reply.mode}, expected bounded_stale")
    chain = b""
    for record in tier.records:
        chain = _digest(chain + record.result_digest + record.mode.encode())
    return cluster, warm_reads + degraded_reads, chain.hex()


def run_edge_read(quick: bool, repeats: int = 2) -> Dict[str, object]:
    """Run the edge-read scenario ``repeats`` times with one seed.

    Every repeat must reproduce the served-record digest chain bit for
    bit — same results, same modes, same order — so the CI smoke job
    doubles as the edge tier's determinism regression.
    """
    warm_reads, degraded_reads = \
        EDGE_READ_MODES["quick" if quick else "full"]
    walls: List[float] = []
    chains: List[str] = []
    events_total = 0
    requests_total = 0
    for _ in range(repeats):
        start = time.perf_counter()
        cluster, requests, chain = _edge_read_once(warm_reads,
                                                   degraded_reads)
        walls.append(time.perf_counter() - start)
        events_total += _events_run(cluster)
        requests_total += requests
        chains.append(chain)
    for other in chains[1:]:
        if other != chains[0]:
            raise RuntimeError("edge_read is not deterministic: two repeats "
                               "with the same seed served different records")
    walls_sorted = sorted(walls)
    total = sum(walls)
    return {
        "repeats": repeats,
        "scale": degraded_reads,
        "wall_seconds_total": total,
        "wall_seconds_p50": _percentile(walls_sorted, 0.50),
        "wall_seconds_p95": _percentile(walls_sorted, 0.95),
        "events": events_total,
        "events_per_sec": events_total / total,
        "requests": requests_total,
        "requests_per_sec": requests_total / total,
        "seed": EDGE_READ_SEED,
        "warm_reads": warm_reads,
        "degraded_reads": degraded_reads,
        "delta_seconds": EDGE_READ_DELTA,
        "record_digest": chains[0],
    }


# -- runner -------------------------------------------------------------------

def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    idx = min(len(sorted_values) - 1,
              max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _batch_size_summary(acc: Metrics) -> Dict[str, float]:
    """The merged adaptive-batching output across timed repeats."""
    hist = acc.histograms.get("batch.size")
    if hist is None or not hist.count:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}
    return {"count": hist.count, "mean": hist.mean,
            "min": hist.min, "max": hist.max,
            "p50": hist.percentile(50), "p90": hist.percentile(90),
            "p99": hist.percentile(99)}


def _fast_path_summary(acc: Metrics) -> Dict[str, float]:
    """Per-accept-path counts and hit rates from the client counters."""
    counts = {path: acc.counter_value(f"client.accept_{path}")
              for path in ("committed", "tentative", "read_only")}
    total = sum(counts.values())
    return {
        "accept_committed": counts["committed"],
        "accept_tentative": counts["tentative"],
        "accept_read_only": counts["read_only"],
        "tentative_rate": counts["tentative"] / total if total else 0.0,
        "read_only_rate": counts["read_only"] / total if total else 0.0,
    }


def run_scenario(name: str, quick: bool, repeats: int) -> Dict[str, object]:
    fn, full_scale, quick_scale = SCENARIOS[name]
    scale = quick_scale if quick else full_scale
    walls: List[float] = []
    events_total = 0
    requests_total = 0
    acc = Metrics()
    # One untimed warmup repeat heats allocator pools, method caches, and
    # lazily-built protocol tables; pausing the collector keeps a
    # mid-repeat GC pass from landing in exactly one timing.
    fn(seed=repeats, scale=scale)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for rep in range(repeats):
            start = time.perf_counter()
            cluster, requests = fn(seed=rep, scale=scale)
            walls.append(time.perf_counter() - start)
            events_total += _events_run(cluster)
            requests_total += requests
            acc.merge(cluster.metrics)
    finally:
        if gc_was_enabled:
            gc.enable()
    walls_sorted = sorted(walls)
    total = sum(walls)
    data: Dict[str, object] = {
        "repeats": repeats,
        "scale": scale,
        "wall_seconds_total": total,
        "wall_seconds_p50": _percentile(walls_sorted, 0.50),
        "wall_seconds_p95": _percentile(walls_sorted, 0.95),
        "events": events_total,
        "events_per_sec": events_total / total,
        "requests": requests_total,
        "requests_per_sec": requests_total / total,
        "batch_size": _batch_size_summary(acc),
    }
    if name == "read_heavy":
        data["fast_path"] = _fast_path_summary(acc)
    return data


def run_all(quick: bool = False, repeats: Optional[int] = None,
            progress: Optional[Callable[[str], None]] = None) -> Dict[str, object]:
    if repeats is None:
        repeats = 3 if quick else 7
    scenarios: Dict[str, object] = {}
    for name in SCENARIOS:
        if progress:
            progress(f"running {name} (repeats={repeats}, "
                     f"{'quick' if quick else 'full'}) ...")
        scenarios[name] = run_scenario(name, quick, repeats)
    if progress:
        progress(f"running open_loop sweep "
                 f"({'quick' if quick else 'full'}, 2 identical-seed "
                 f"repeats) ...")
    scenarios["open_loop"] = run_open_loop(quick)
    if progress:
        progress(f"running sharded_scaling sweep over shards "
                 f"{SHARD_COUNTS} ({'quick' if quick else 'full'}, "
                 f"2 identical-seed repeats) ...")
    scenarios["sharded_scaling"] = run_sharded_scaling(quick)
    if progress:
        progress(f"running edge_read ({'quick' if quick else 'full'}, "
                 f"2 identical-seed repeats) ...")
    scenarios["edge_read"] = run_edge_read(quick)
    return {
        "bench_id": BENCH_ID,
        "schema_version": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": scenarios,
    }


# -- profiling ----------------------------------------------------------------

PROFILE_TOP_N = 25


def profile_scenarios(quick: bool = False,
                      progress: Optional[Callable[[str], None]] = None) -> str:
    """cProfile every closed-loop scenario; return the text artifact.

    Each scenario runs once untimed (warmup) and once under the
    profiler, at the mode's scale and seed 0, and contributes its top
    ``PROFILE_TOP_N`` functions by cumulative time.  The artifact is
    what the CI perf-smoke job uploads next to the BENCH report so a
    throughput regression comes with the hot-path breakdown attached.
    """
    import cProfile
    import io
    import pstats

    sections: List[str] = []
    for name, (fn, full_scale, quick_scale) in SCENARIOS.items():
        scale = quick_scale if quick else full_scale
        if progress:
            progress(f"profiling {name} (scale={scale}) ...")
        fn(seed=0, scale=scale)                     # warmup, unprofiled
        profiler = cProfile.Profile()
        profiler.enable()
        fn(seed=0, scale=scale)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
        sections.append(f"== {name} (scale={scale}, seed=0, "
                        f"top {PROFILE_TOP_N} by cumulative time) ==\n"
                        f"{buf.getvalue()}")
    return "\n".join(sections)


# -- schema -------------------------------------------------------------------

_TOP_FIELDS = {
    "bench_id": int,
    "schema_version": int,
    "mode": str,
    "python": str,
    "platform": str,
    "scenarios": dict,
}

_SCENARIO_FIELDS = {
    "repeats": int,
    "scale": int,
    "wall_seconds_total": float,
    "wall_seconds_p50": float,
    "wall_seconds_p95": float,
    "events": int,
    "events_per_sec": float,
    "requests": int,
    "requests_per_sec": float,
}

#: The merged adaptive-batching histogram every closed-loop scenario carries.
_BATCH_SIZE_FIELDS = {
    "count": int,
    "mean": float,
    "min": float,
    "max": float,
    "p50": float,
    "p90": float,
    "p99": float,
}

#: Per-accept-path accounting the read_heavy scenario must report.
_FAST_PATH_FIELDS = {
    "accept_committed": int,
    "accept_tentative": int,
    "accept_read_only": int,
    "tentative_rate": float,
    "read_only_rate": float,
}

#: Extra fields the open_loop scenario must carry on top of the common set.
_OPEN_LOOP_FIELDS = {
    "seed": int,
    "arrival_process": str,
    "slo_p95_seconds": float,
    "target_attainment": float,
    "max_sustainable_req_s": float,
    "knee_offered_req_s": float,
    "curve": list,
}

_CURVE_POINT_FIELDS = {
    "offered_rate": float,
    "duration": float,
    "offered": int,
    "completed": int,
    "timed_out": int,
    "shed": int,
    "errors": int,
    "achieved_rate": float,
    "attainment": float,
    "sustainable": bool,
}


#: Extra fields the edge_read scenario must carry.
_EDGE_READ_FIELDS = {
    "seed": int,
    "warm_reads": int,
    "degraded_reads": int,
    "delta_seconds": float,
    "record_digest": str,
}


def _validate_edge_read(data: Dict[str, object]) -> None:
    for key, typ in _EDGE_READ_FIELDS.items():
        if key not in data:
            raise ValueError(f"edge_read missing field {key!r}")
        value = data[key]
        if typ is float:
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"edge_read.{key} must be numeric >= 0")
        elif not isinstance(value, typ):
            raise ValueError(f"edge_read.{key} must be {typ.__name__}")
    if data["warm_reads"] < 1 or data["degraded_reads"] < 1:
        raise ValueError("edge_read must serve both linearizable warmup "
                         "reads and degraded cache reads")
    if not data["record_digest"]:
        raise ValueError("edge_read.record_digest (the determinism "
                         "witness) must be non-empty")


#: Extra fields the sharded_scaling scenario must carry.
_SHARDED_FIELDS = {
    "seed": int,
    "shard_counts": list,
    "clients_per_shard": int,
    "ops_per_client": int,
    "scaling_factor": float,
    "sweep": list,
}

_SWEEP_POINT_FIELDS = {
    "shards": int,
    "requests": int,
    "sim_seconds": float,
    "sim_req_s": float,
    "ops_routed": list,
    "shard_log": list,
}

#: The headline claim BENCH_5 exists to witness: at the top of the
#: sweep (4 shards vs 1) simulated throughput must scale at least 3x.
SHARDED_MIN_SCALING = 3.0


def _validate_sharded_scaling(data: Dict[str, object]) -> None:
    for key, typ in _SHARDED_FIELDS.items():
        if key not in data:
            raise ValueError(f"sharded_scaling missing field {key!r}")
        value = data[key]
        if typ is float:
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"sharded_scaling.{key} must be "
                                 f"numeric >= 0")
        elif not isinstance(value, typ):
            raise ValueError(f"sharded_scaling.{key} must be {typ.__name__}")
    sweep = data["sweep"]
    if not sweep:
        raise ValueError("sharded_scaling.sweep must be non-empty")
    for i, point in enumerate(sweep):
        for key, typ in _SWEEP_POINT_FIELDS.items():
            if key not in point:
                raise ValueError(f"sweep point {i} missing field {key!r}")
            value = point[key]
            if typ is float:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"sweep[{i}].{key} must be numeric")
            elif not isinstance(value, typ):
                raise ValueError(f"sweep[{i}].{key} must be {typ.__name__}")
        if len(point["shard_log"]) != point["shards"]:
            raise ValueError(f"sweep[{i}]: expected one request-log digest "
                             f"per shard")
        if point["sim_req_s"] <= 0 or point["sim_seconds"] <= 0:
            raise ValueError(f"sweep[{i}]: simulated rate must be positive")
    shards = [point["shards"] for point in sweep]
    if shards != sorted(set(shards)) or shards[0] != 1:
        raise ValueError("sharded_scaling.sweep must walk strictly "
                         "increasing shard counts starting at 1")
    if shards != data["shard_counts"]:
        raise ValueError("sharded_scaling.shard_counts disagrees with "
                         "the sweep")
    scaling = sweep[-1]["sim_req_s"] / sweep[0]["sim_req_s"]
    if abs(scaling - data["scaling_factor"]) > 1e-9:
        raise ValueError("sharded_scaling.scaling_factor disagrees with "
                         "the sweep's endpoint rates")
    if scaling < SHARDED_MIN_SCALING:
        raise ValueError(f"sharded_scaling: {shards[-1]} shards delivered "
                         f"only {scaling:.2f}x the 1-shard simulated "
                         f"req/s (need >= {SHARDED_MIN_SCALING}x)")


def _validate_open_loop(data: Dict[str, object]) -> None:
    for key, typ in _OPEN_LOOP_FIELDS.items():
        if key not in data:
            raise ValueError(f"open_loop missing field {key!r}")
        value = data[key]
        if typ is float:
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"open_loop.{key} must be numeric >= 0")
        elif not isinstance(value, typ):
            raise ValueError(f"open_loop.{key} must be {typ.__name__}")
    curve = data["curve"]
    if not curve:
        raise ValueError("open_loop.curve must be non-empty")
    rates = []
    for i, point in enumerate(curve):
        for key, typ in _CURVE_POINT_FIELDS.items():
            if key not in point:
                raise ValueError(f"curve point {i} missing field {key!r}")
            value = point[key]
            if typ is float:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"curve[{i}].{key} must be numeric")
            elif not isinstance(value, typ):
                raise ValueError(f"curve[{i}].{key} must be {typ.__name__}")
        rates.append(point["offered_rate"])
    if rates != sorted(rates) or len(set(rates)) != len(rates):
        raise ValueError("open_loop.curve offered rates must be a "
                         "strictly increasing (monotone) sweep")
    if not any(p["sustainable"] for p in curve):
        raise ValueError("open_loop.curve shows no sustainable point — "
                         "lower the starting offered rate")
    if not any(not p["sustainable"] for p in curve):
        raise ValueError("open_loop.curve never crossed the knee — "
                         "raise max_points or the load factor")
    best = max((p["achieved_rate"] for p in curve if p["sustainable"]),
               default=0.0)
    if abs(best - data["max_sustainable_req_s"]) > 1e-9:
        raise ValueError("open_loop.max_sustainable_req_s disagrees with "
                         "the curve's best sustainable point")


def _validate_batch_size(name: str, data: Dict[str, object]) -> None:
    batch = data.get("batch_size")
    if not isinstance(batch, dict):
        raise ValueError(f"{name}.batch_size must be a dict")
    for key, typ in _BATCH_SIZE_FIELDS.items():
        value = batch.get(key)
        if typ is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name}.batch_size.{key} must be int")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name}.batch_size.{key} must be numeric")
        if value < 0:
            raise ValueError(f"{name}.batch_size.{key} must be >= 0")
    if batch["count"] > 0 and not (batch["min"] <= batch["p50"]
                                   <= batch["p99"] <= batch["max"]):
        raise ValueError(f"{name}.batch_size percentiles out of order")
    if batch["count"] == 0 and name in ("normal_case", "read_heavy"):
        raise ValueError(f"{name}: no batches were formed — the ordering "
                         f"path never ran")


def _validate_fast_path(data: Dict[str, object]) -> None:
    fast = data.get("fast_path")
    if not isinstance(fast, dict):
        raise ValueError("read_heavy.fast_path must be a dict")
    for key, typ in _FAST_PATH_FIELDS.items():
        value = fast.get(key)
        if typ is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"read_heavy.fast_path.{key} must be int")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"read_heavy.fast_path.{key} must be numeric")
        if value < 0:
            raise ValueError(f"read_heavy.fast_path.{key} must be >= 0")
    for rate in ("tentative_rate", "read_only_rate"):
        if not 0.0 <= fast[rate] <= 1.0:
            raise ValueError(f"read_heavy.fast_path.{rate} outside [0, 1]")
    # The scenario exists to witness both fast paths actually taken.
    if fast["accept_read_only"] == 0:
        raise ValueError("read_heavy: no request completed via the "
                         "read-only optimization")
    if fast["accept_tentative"] == 0:
        raise ValueError("read_heavy: no request completed on a tentative "
                         "commit certificate")


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``report`` is a valid BENCH document."""
    for key, typ in _TOP_FIELDS.items():
        if key not in report:
            raise ValueError(f"missing top-level field {key!r}")
        if not isinstance(report[key], typ):
            raise ValueError(f"field {key!r} must be {typ.__name__}, "
                             f"got {type(report[key]).__name__}")
    if report["mode"] not in ("quick", "full"):
        raise ValueError(f"mode must be quick|full, got {report['mode']!r}")
    missing = ((set(SCENARIOS) | {"open_loop", "sharded_scaling",
                                  "edge_read"})
               - set(report["scenarios"]))
    if missing:
        raise ValueError(f"missing scenarios: {sorted(missing)}")
    for name, data in report["scenarios"].items():
        for key, typ in _SCENARIO_FIELDS.items():
            if key not in data:
                raise ValueError(f"scenario {name!r} missing field {key!r}")
            value = data[key]
            if typ is float:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{name}.{key} must be numeric")
                if value < 0:
                    raise ValueError(f"{name}.{key} must be >= 0")
            elif not isinstance(value, typ):
                raise ValueError(f"{name}.{key} must be {typ.__name__}")
        if data["wall_seconds_p95"] < data["wall_seconds_p50"]:
            raise ValueError(f"{name}: p95 below p50")
        if data["repeats"] < 1 or data["requests"] < 1:
            raise ValueError(f"{name}: repeats/requests must be positive")
        if name in SCENARIOS:
            _validate_batch_size(name, data)
        if name == "read_heavy":
            _validate_fast_path(data)
        if name == "open_loop":
            _validate_open_loop(data)
        elif name == "sharded_scaling":
            _validate_sharded_scaling(data)
        elif name == "edge_read":
            _validate_edge_read(data)
    # The headline cross-check BENCH_7 exists to witness: edge-served
    # reads must out-rate the quorum read path by the stated factor.
    edge = report["scenarios"]["edge_read"]
    baseline = report["scenarios"]["read_heavy"]
    speedup = (edge["requests_per_sec"]
               / baseline["requests_per_sec"])
    if speedup < EDGE_READ_MIN_SPEEDUP:
        raise ValueError(f"edge_read delivered only {speedup:.2f}x "
                         f"read_heavy's req/s "
                         f"(need >= {EDGE_READ_MIN_SPEEDUP}x)")


def extract_curve_artifact(report: Dict[str, object]) -> Dict[str, object]:
    """The standalone load-latency curve artifact for the open_loop
    scenario (what the CI job uploads next to the BENCH report)."""
    data = report["scenarios"]["open_loop"]
    return {
        "bench_id": report["bench_id"],
        "schema_version": report["schema_version"],
        "mode": report["mode"],
        "scenario": "open_loop",
        "seed": data["seed"],
        "arrival_process": data["arrival_process"],
        "slo_p95_seconds": data["slo_p95_seconds"],
        "target_attainment": data["target_attainment"],
        "max_sustainable_req_s": data["max_sustainable_req_s"],
        "knee_offered_req_s": data["knee_offered_req_s"],
        "curve": data["curve"],
    }


def write_report(report: Dict[str, object], path: str) -> None:
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
