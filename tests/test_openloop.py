"""Open-loop traffic engine: seeded arrivals, SLO accounting, the sweep.

The engine's contract has three legs, each pinned here:

- **Determinism**: the same seed produces the same arrival sequence and
  the same load-latency curve, bit for bit — the quick knee of the
  calibrated cluster is pinned point by point, so one run is the
  same-seed-twice check (``benchmarks/test_openloop_knee.py`` holds the
  full-size curve against ``openloop_curve.json``);
- **Honest SLOs**: timeouts, shed requests, and service errors all count
  *against* attainment — the engine must never survey only the requests
  that happened to finish;
- **Aggregation**: a million logical users cost O(active requests)
  through a small protocol-client pool.
"""

import gc
import random

import pytest

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness import costs as C
from repro.harness.cluster import build_cluster
from repro.workloads.openloop import (
    LoadCurve,
    LoadPoint,
    OpenLoopDriver,
    PROCESSES,
    RequestClass,
    _OpenRequest,
    default_kv_classes,
    make_process,
    run_load_point,
    walk_to_knee,
)


def lan_cluster(seed=0, **cfg_kwargs):
    """A cluster with realistic link latency and CPU costs, so offered
    load actually queues (a zero-cost cluster has no knee to find)."""
    config = BftConfig(**cfg_kwargs)
    return build_cluster(lambda i: InMemoryStateManager(size=64),
                         config=config,
                         network_config=C.lan_network(seed),
                         costs=C.PROTOCOL_COSTS, seed=seed)


# -- arrival processes --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_arrival_processes_are_seeded_and_monotone(name):
    def draw(seed):
        proc = make_process(name, 200.0, random.Random(f"arr:{seed}"))
        times, t = [], 0.0
        for _ in range(400):
            t = proc.next_after(t)
            times.append(t)
        return times

    first, second = draw(7), draw(7)
    assert first == second                      # bit-identical per seed
    assert all(b > a for a, b in zip(first, first[1:]))
    assert draw(8) != first                     # seed actually matters


def test_poisson_long_run_rate_matches():
    proc = make_process("poisson", 50.0, random.Random("rate-check"))
    t = 0.0
    for _ in range(5000):
        t = proc.next_after(t)
    assert t * 50.0 / 5000 == pytest.approx(1.0, rel=0.1)


def test_onoff_is_bursty_but_keeps_the_long_run_mean():
    proc = make_process("onoff", 100.0, random.Random("bursty"),
                        on_fraction=0.25)
    times, t = [], 0.0
    for _ in range(20_000):
        t = proc.next_after(t)
        times.append(t)
    # Long-run mean within a loose band (heavy-tailed periods converge
    # slowly; the draw is seeded, so this is a fixed number, not flake).
    assert 0.5 < (len(times) / times[-1]) / 100.0 < 2.0
    # Burstiness: within-burst gaps are ~1/burst_rate, so the median gap
    # must sit well below the 1/mean_rate a Poisson stream would show.
    gaps = sorted(b - a for a, b in zip(times, times[1:]))
    assert gaps[len(gaps) // 2] < 0.5 / 100.0


def test_make_process_rejects_unknowns_and_bad_parameters():
    rng = random.Random(0)
    with pytest.raises(KeyError):
        make_process("lognormal", 10.0, rng)
    with pytest.raises(ValueError):
        make_process("poisson", 0.0, rng)
    with pytest.raises(ValueError):
        make_process("onoff", 10.0, rng, on_fraction=0.0)


# -- the aggregated population driver -----------------------------------------


def _drive(cluster, seed=0, rate=300.0, duration=0.4, **kwargs):
    proc = make_process("poisson", rate,
                        random.Random(f"openloop-test:{seed}"))
    driver = OpenLoopDriver(cluster, proc, default_kv_classes(),
                            seed=seed, **kwargs)
    assert driver.drive(duration)
    return driver


def test_a_completed_request_leaves_no_reference_cycle():
    """A request's deadline event points back at it; once the request
    completes, nothing may keep the pair alive for the cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        driver = _drive(lan_cluster(seed=0), seed=1)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sum(isinstance(obj, _OpenRequest) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert sum(s.completed for s in driver.stats.values()) > 50
    assert leaked == 0


def test_same_seed_gives_identical_arrivals_and_summary():
    a = _drive(lan_cluster(seed=0), seed=3, record_arrivals=True)
    b = _drive(lan_cluster(seed=0), seed=3, record_arrivals=True)
    assert a.arrival_log == b.arrival_log
    assert a.arrival_log                      # the run was not empty
    assert a.summary() == b.summary()
    c = _drive(lan_cluster(seed=0), seed=4, record_arrivals=True)
    assert c.arrival_log != a.arrival_log


def test_pool_multiplexes_many_logical_users():
    cluster = lan_cluster()
    driver = _drive(cluster, pool_size=8)
    assert driver.offered > 8                 # more sessions than clients
    assert driver.completed == driver.offered
    assert driver.shed == 0 and driver.timed_out == 0
    assert driver.attainment == 1.0
    # O(active requests), not O(users): only the pool exists.
    assert len(cluster.clients) == 8


def test_queue_overflow_sheds_and_counts_against_slo():
    driver = _drive(lan_cluster(), rate=3000.0, duration=0.1,
                    pool_size=1, queue_limit=2)
    assert driver.shed > 0
    assert driver.resolved == driver.offered  # every arrival accounted
    assert driver.attainment < 1.0
    summary = driver.summary()
    assert summary["shed"] == driver.shed
    shed_by_class = sum(s.shed for s in driver.stats.values())
    assert shed_by_class == driver.shed


def test_timeouts_count_against_slo_and_censor_latency():
    cluster = lan_cluster()
    cluster.network.add_filter(
        lambda src, dst, msg: not str(src).startswith("openloop-"))
    driver = _drive(cluster, rate=200.0, duration=0.2)
    assert driver.offered > 0
    assert driver.timed_out == driver.offered  # nothing ever completed
    assert driver.attainment == 0.0
    # Censored observations: the recorded p95 is the timeout cap, not a
    # survivors-only figure.
    timeout = default_kv_classes()[0].timeout
    assert driver.latency_percentile(95) == pytest.approx(timeout)


def test_service_errors_count_against_slo():
    classes = [RequestClass("bad", 1.0,
                            lambda rng, user: (b"\x00garbage-op", False),
                            slo_p95=0.05, timeout=0.4)]
    cluster = lan_cluster()
    proc = make_process("poisson", 200.0, random.Random("errs"))
    driver = OpenLoopDriver(cluster, proc, classes, seed=0)
    assert driver.drive(0.2)
    assert driver.completed == driver.offered  # replies did arrive ...
    assert driver.errors == driver.offered     # ... but all were errors
    assert driver.attainment == 0.0            # and none count as met


# -- the load-sweep controller ------------------------------------------------


def test_run_load_point_is_deterministic():
    kwargs = dict(rate=400.0, duration=0.3, seed=5)
    first, _ = run_load_point(lan_cluster, **kwargs)
    second, _ = run_load_point(lan_cluster, **kwargs)
    assert first.as_dict() == second.as_dict()
    assert first.completed > 0


def test_walk_to_knee_produces_a_monotone_curve_with_a_knee():
    curve = walk_to_knee(lan_cluster, start_rate=400.0, duration=0.25,
                         factor=8.0, max_points=3, refine=1,
                         classes=default_kv_classes(slo_p95=0.001))
    rates = [p.offered_rate for p in curve.points]
    assert rates == sorted(rates) and len(set(rates)) == len(rates)
    assert any(p.sustainable for p in curve.points)
    assert any(not p.sustainable for p in curve.points)
    knee = curve.knee
    assert knee is not None and knee.sustainable
    assert knee.offered_rate == max(p.offered_rate for p in curve.points
                                    if p.sustainable)
    assert curve.max_sustainable_rate == knee.achieved_rate > 0
    curve.check()


def test_validate_open_loop_rejects_a_non_monotone_sweep():
    def curve(*points):
        return LoadCurve(slo_p95=0.005, target_attainment=0.95, points=[
            LoadPoint(rate, 0.5, 10, 10, 0, 0, 0, rate, 0.001,
                      1.0 if sustainable else 0.5, sustainable)
            for rate, sustainable in points])

    curve((100.0, True), (200.0, False)).check()
    with pytest.raises(ValueError, match="monotone"):
        curve((200.0, False), (100.0, True)).check()
    with pytest.raises(ValueError, match="knee"):
        curve((100.0, True), (200.0, True)).check()
    with pytest.raises(ValueError, match="sustainable"):
        curve((100.0, False), (200.0, False)).check()


# The quick ladder (1000 req/s x 2.5, at most 5 points, 1 refinement,
# 0.2 simulated seconds a point) on the calibrated cluster, one row per
# LoadPoint field.  Simulated and exact: the rows move only when the
# cost model, the protocol or the arrival draw does.
QUICK_KNEE_POINTS = [
    (1000.0, 0.2, 190, 190, 0, 0, 0, 950.0,
     0.0014229108178583638, 1.0, True),
    (2500.0, 0.2, 511, 511, 0, 0, 0, 2555.0,
     0.002499610816036349, 1.0, True),
    (6250.0, 0.2, 1232, 1232, 0, 0, 0, 6160.0,
     0.0026321468936091608, 1.0, True),
    (15625.0, 0.2, 3041, 3040, 1, 0, 0, 15200.0,
     0.003122943662376986, 0.9996711608023676, True),
    (24705.294220065465, 0.2, 4973, 3885, 0, 1088, 0, 19425.0,
     0.017222022802668602, 0.06535290569072995, False),
    (39062.5, 0.2, 7800, 3882, 0, 3918, 0, 19410.0,
     0.017463133639605305, 0.02076923076923077, False),
]


def test_quick_knee_is_pinned():
    curve = walk_to_knee(
        lambda seed: lan_cluster(seed, checkpoint_interval=16, batch_max=8),
        start_rate=1000.0, duration=0.2, factor=2.5, max_points=5,
        refine=1, classes=default_kv_classes(slo_p95=0.005))
    curve.check()
    assert [p.as_dict() for p in curve.points] == [
        LoadPoint(*row).as_dict() for row in QUICK_KNEE_POINTS]
    assert curve.knee.offered_rate == 15625.0
    assert curve.max_sustainable_rate == 15200.0
