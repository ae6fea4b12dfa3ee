"""Explorer: deterministic trials, shrinking, reports, and injector
integration with the tracer/metrics observability layer."""

import pytest

from repro.bft.faults import HONEST
from repro.bft.statemachine import InMemoryStateManager
from repro.faultlab import report as reportlib
from repro.faultlab.explorer import run_trial, shrink, sweep
from repro.faultlab.injector import FaultInjector
from repro.faultlab.plan import (
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    ReplicaFault,
)
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put


def test_same_seed_reruns_are_bit_identical():
    a = run_trial("byzantine_backup", 3)
    b = run_trial("byzantine_backup", 3)
    assert a.plan.describe() == b.plan.describe()
    assert a.violation_keys() == b.violation_keys()
    assert (a.issued, a.accepted, a.sim_seconds) == \
        (b.issued, b.accepted, b.sim_seconds)


def test_different_seeds_draw_different_plans():
    plans = {run_trial("byzantine_backup", s).plan.describe()
             for s in range(4)}
    assert len(plans) > 1


def test_shrink_finds_the_minimal_failing_plan_and_replay_reproduces_it():
    """ACCEPTANCE: a bloated failing plan shrinks to a strictly smaller
    plan that still fails, and replaying it reproduces the violation."""
    bloated = FaultPlan((
        ReplicaFault(1, "wrong_reply"),
        ReplicaFault(2, "wrong_reply"),
        LossFault(0.05, start=0.0, stop=5.0),
        DelaySpikeFault(0.02, start=1.0, stop=3.0),
    ))
    original = run_trial("beyond_f_wrong_reply", 0, plan=bloated)
    assert not original.ok

    result = shrink("beyond_f_wrong_reply", 0, bloated,
                    violations=original.violations)
    assert result.shrunk
    assert len(result.plan) < len(bloated)
    # The colluding pair is the actual cause; the chaff shrinks away.
    assert {f.describe() for f in result.plan} == \
        {"replica1:wrong_reply", "replica2:wrong_reply"}

    replayed = run_trial("beyond_f_wrong_reply", 0, plan=result.plan)
    assert not replayed.ok
    assert replayed.violation_keys() == sorted(v.key for v in result.violations)


def test_trial_refuses_to_judge_a_truncated_event_ring(monkeypatch):
    """The ring is the evidence: once it has evicted an event the
    checkers would pass on executions they never saw."""
    from repro.sim import tracing
    monkeypatch.setattr(tracing, "MAX_EVENTS", 256)
    with pytest.raises(RuntimeError,
                       match=r"'byzantine_backup' seed 3: .* dropped \d+"):
        run_trial("byzantine_backup", 3)


def test_shrink_refuses_a_passing_plan():
    with pytest.raises(ValueError):
        shrink("byzantine_backup", 0, FaultPlan())


TRIAL_KEYS = {"scenario", "seed", "plan", "plan_text", "ok", "violations",
              "issued", "accepted", "sim_seconds", "wall_seconds",
              "faults_injected", "faults_cleared", "rollbacks", "edge_modes"}
SWEEP_KEYS = {"kind", "schema_version", "mode", "python", "ok", "scenarios",
              "seeds", "trials", "issued", "accepted", "wall_seconds",
              "per_scenario", "failures"}


def test_trial_report_is_the_trial_dict_under_kind_and_version():
    result = run_trial("byzantine_backup", 1)
    report = reportlib.trial_report(result)
    assert set(report) == TRIAL_KEYS | {"kind", "schema_version", "python"}
    assert report["kind"] == "faultlab_trial"
    assert report["schema_version"] == reportlib.SCHEMA_VERSION
    assert report["ok"] is result.ok is (not report["violations"])


def test_small_sweep_counts_and_report():
    result = sweep(scenarios=["byzantine_backup"], n_seeds=2)
    assert result.ok
    assert result.trials == 2
    assert result.issued > 0 and result.accepted > 0
    report = reportlib.sweep_report(result, "custom")
    assert set(report) == SWEEP_KEYS
    assert report["per_scenario"]["byzantine_backup"] == {
        "trials": 2, "failures": 0, "issued": result.issued,
        "accepted": result.accepted,
        "faults_injected": sum(r.faults_injected for r in result.results)}


@pytest.mark.parametrize("seed", range(4))
def test_two_crashes_one_at_a_time_lose_no_operation(seed):
    """Primary down across the view change and back, then a backup down
    for good: inside the fault budget at every instant, so everything
    issued is accepted.  ``ok`` alone does not see the stall (an
    open-loop timeout counts as resolved): before the restarted replica
    asked for the view it missed, a third of the arrivals timed out."""
    result = run_trial("stale_view_second_crash", seed)
    assert result.ok, result.violation_keys()
    assert result.faults_injected == 2
    assert result.issued > 200
    assert result.accepted == result.issued


def test_injector_faults_flow_through_tracer_and_metrics():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    plan = FaultPlan((
        ReplicaFault(1, "mute", start=0.5, stop=2.0),
        LossFault(0.08, start=0.5, stop=2.0),
    ))
    base_drop = cluster.network.config.default_link.drop_rate
    injector = FaultInjector(cluster, plan)
    injector.arm()

    client = cluster.add_client("client0")
    for i in range(6):
        assert client.call(put(i % 4, b"v%d" % i)) == b"ok"
    cluster.run(3.0)

    assert injector.injected == 2 and injector.cleared == 2
    injected = cluster.tracer.find("fault_injected")
    cleared = cluster.tracer.find("fault_cleared")
    assert len(injected) == 2 and len(cleared) == 2
    assert {e.detail["fault"] for e in injected} == \
        {f.describe() for f in plan}
    assert cluster.tracer.counters["fault_injected"] == 2
    assert cluster.tracer.counters["fault_cleared"] == 2
    # Reverts restored the system: honest behavior, original link.
    assert cluster.replicas[1].behavior is HONEST
    assert cluster.network.config.default_link.drop_rate == base_drop


def test_quiesce_force_clears_open_ended_faults():
    cluster = make_kv_cluster()
    plan = FaultPlan((ReplicaFault(2, "mute"),))  # no stop: runs forever
    injector = FaultInjector(cluster, plan)
    injector.arm()
    cluster.run(0.5)
    assert cluster.replicas[2].behavior is not HONEST
    injector.quiesce()
    assert cluster.replicas[2].behavior is HONEST
    assert injector.cleared == 1
    forced = cluster.tracer.find("fault_cleared")
    assert forced and forced[-1].detail.get("forced") is True


# -- edge scenarios ----------------------------------------------------------------


def test_edge_partition_trial_passes_and_actually_degrades():
    """The staleness-contract audit passes AND the trial is non-vacuous:
    the 100ms edge<->core partition forced degraded serves, and the
    breaker re-promoted before the final check."""
    result = run_trial("edge_partition", 0)
    assert result.ok, result.violations
    assert result.edge_modes.get("linearizable", 0) > 0
    degraded = sum(count for mode, count in result.edge_modes.items()
                   if mode != "linearizable")
    assert degraded > 0, f"vacuous trial: {result.edge_modes}"


def test_edge_viewchange_trial_degrades_on_the_signal():
    result = run_trial("edge_viewchange_degrade", 0)
    assert result.ok, result.violations
    assert result.edge_modes.get("bounded_stale", 0) > 0, \
        f"vacuous trial: {result.edge_modes}"


def test_edge_trials_are_bit_identical_across_reruns():
    a = run_trial("edge_partition", 2)
    b = run_trial("edge_partition", 2)
    assert a.plan == b.plan
    assert a.edge_modes == b.edge_modes
    assert a.violation_keys() == b.violation_keys()
    assert a.sim_seconds == b.sim_seconds


def test_edge_partition_fault_requires_an_edge_tier():
    from repro.faultlab.plan import EdgePartitionFault
    plan = FaultPlan((EdgePartitionFault(start=0.5, stop=1.0),))
    with pytest.raises(ValueError, match="edge tier"):
        run_trial("byzantine_backup", 0, plan=plan)
