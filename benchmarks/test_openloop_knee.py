"""The open-loop knee: max sustainable req/s at a 5 ms p95 SLO.

Not a paper table — the paper's workloads are closed-loop — but the
same kind of result: simulated, seeded and exact.  The load-sweep
controller walks Poisson arrivals up a geometric ladder (500 req/s x 2,
at most 7 points, 0.5 simulated seconds each) on the calibrated f=1
cluster until the SLO breaks, then bisects twice toward the knee.

``openloop_curve.json`` at the repository root is the golden file: the
curve is a pure function of the seed, the cost model and the protocol,
so a change that is meant to hold simulated behaviour must reproduce it
bit for bit.  ``tests/test_openloop.py`` pins the quick ladder in tier-1.
"""

import json
from pathlib import Path

from repro.bft.config import BftConfig
from repro.harness import costs as C
from repro.harness.report import format_table
from repro.workloads.microbench import build_kv_cluster
from repro.workloads.openloop import default_kv_classes, walk_to_knee

GOLDEN = Path(__file__).resolve().parent.parent / "openloop_curve.json"


def calibrated_cluster(seed):
    return build_kv_cluster(BftConfig(checkpoint_interval=16, batch_max=8),
                            network_config=C.lan_network(seed),
                            costs=C.PROTOCOL_COSTS)


def test_openloop_knee_matches_the_golden_curve(benchmark):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    slo = golden["slo_p95_seconds"]
    # walk_to_knee runs one ladder: seed 0, Poisson arrivals.
    assert (golden["seed"], golden["arrival_process"]) == (0, "poisson")

    def run():
        return walk_to_knee(calibrated_cluster, start_rate=500.0,
                            duration=0.5, factor=2.0,
                            max_points=7, refine=2,
                            classes=default_kv_classes(slo_p95=slo))
    curve = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        f"Open-loop load sweep: p95 SLO {slo * 1e3:g} ms, seed "
        f"{golden['seed']}",
        ["offered req/s", "achieved req/s", "p95 ms", "attainment",
         "timed out", "shed", "sustainable"],
        [(p.offered_rate, p.achieved_rate, p.p95 * 1e3, p.attainment,
          p.timed_out, p.shed, "yes" if p.sustainable else "NO")
         for p in curve.points],
        note=f"Knee at {curve.knee.offered_rate:g} offered req/s: max "
             f"sustainable {curve.max_sustainable_rate:g} simulated req/s."))

    curve.check()
    doc = curve.as_dict()
    assert doc["points"] == golden["curve"]
    assert doc["max_sustainable_req_s"] == golden["max_sustainable_req_s"]
    assert doc["knee_offered_req_s"] == golden["knee_offered_req_s"]
    assert doc["slo_p95"] == slo
    assert doc["target_attainment"] == golden["target_attainment"]
