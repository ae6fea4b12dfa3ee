"""Scenario registry coverage and the FaultLab CLI surface."""

import json
import random

import pytest

from repro.faultlab.__main__ import main
from repro.faultlab.explorer import (
    SweepResult,
    TrialContext,
    run_trial,
    shrink,
)
from repro.faultlab.plan import FaultPlan, ReplicaFault
from repro.faultlab.scenarios import (
    SCENARIOS,
    get_scenario,
    scenario_names,
)
from tests.test_faultlab_explorer import SWEEP_KEYS, TRIAL_KEYS

SWEPT = scenario_names(in_sweep_only=True)


def test_registry_has_the_required_breadth():
    assert len(SWEPT) >= 6
    assert "beyond_f_wrong_reply" in scenario_names()
    assert "beyond_f_wrong_reply" not in SWEPT
    services = {SCENARIOS[name].service for name in SWEPT}
    assert "kv" in services and "nfs" in services


def test_plan_generators_are_seed_deterministic():
    for name in SWEPT:
        gen = get_scenario(name).plan
        first = gen(random.Random(f"{name}:determinism"))
        second = gen(random.Random(f"{name}:determinism"))
        assert first == second, name


def test_every_plan_a_scenario_can_draw_constructs():
    # No trial runs: only the generators, with the rng run_trial gives
    # them.  A behavior name a generator draws but the plan DSL does not
    # know (unauth_reply, first drawn at seed 10) dies here.
    for name in scenario_names():
        scenario = get_scenario(name)
        for seed in range(64):
            scenario.plan(TrialContext(scenario, seed).rng_for("plan"))


@pytest.mark.parametrize("seed", [10, 15, 20, 31])
def test_byzantine_backup_survives_unauthenticated_replies(seed):
    result = run_trial("byzantine_backup", seed)
    assert [f.behavior for f in result.plan] == ["unauth_reply"]
    assert result.ok, [str(v) for v in result.violations]
    assert result.accepted > 0


@pytest.mark.parametrize("name", SWEPT)
def test_swept_scenarios_hold_their_invariants_at_seed_zero(name):
    result = run_trial(name, 0)
    assert result.ok, [str(v) for v in result.violations]
    assert result.accepted > 0
    assert result.faults_injected > 0


def test_shard_view_change_is_swept_and_sharded():
    scenario = get_scenario("shard_view_change")
    assert "shard_view_change" in SWEPT
    assert scenario.shards == 2 and scenario.service == "sql"


def test_sharded_checks_flag_a_missing_view_change():
    # A window that opens long after the workload drained partitions an
    # idle primary: nothing times out, no view change happens, and the
    # sharded checks must call that out rather than passing vacuously.
    from repro.faultlab.plan import PartitionFault
    plan = FaultPlan((PartitionFault((0,), start=30.0, stop=31.0),))
    result = run_trial("shard_view_change", 0, plan=plan)
    assert [v.invariant for v in result.violations] == ["shard_view_change"]


def test_tentative_viewchange_is_swept_and_rolls_back():
    # The scenario exists to prove the fast path's rollback machinery
    # under view changes: every seed must hold the full invariant suite
    # (reply validity and agreement included), and across a handful of
    # seeds the rollback must actually fire — a trial where no replica
    # ever undoes a tentative execution exercises nothing.
    assert "tentative_viewchange" in SWEPT
    rollbacks = 0
    for seed in range(4):
        result = run_trial("tentative_viewchange", seed)
        assert result.ok, (seed, [str(v) for v in result.violations])
        assert result.accepted == result.issued > 0, seed
        rollbacks += result.rollbacks
    assert rollbacks > 0, "no trial rolled back a tentative execution"


def test_trial_reports_carry_the_rollback_count():
    result = run_trial("tentative_viewchange", 0)
    doc = result.to_dict()
    assert doc["rollbacks"] == result.rollbacks >= 0


def test_cli_list_and_run(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "beyond_f_wrong_reply" in out and "not swept" in out

    assert main(["run", "--scenario", "byzantine_backup",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_cli_run_writes_a_validating_report(tmp_path):
    out = tmp_path / "trial.json"
    assert main(["run", "--scenario", "lossy_bursts", "--seed", "1",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == TRIAL_KEYS | {"kind", "schema_version", "python"}
    assert report["scenario"] == "lossy_bursts"


def test_cli_sweep_writes_a_validating_report(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--quick", "--quiet",
                 "--scenario", "byzantine_backup",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == SWEEP_KEYS
    assert report["mode"] == "custom"   # one scenario is not the sweep
    assert report["trials"] == 3  # --quick pins 3 seeds per scenario


def _no_trials(scenarios=None, n_seeds=4, base_seed=0, progress=None):
    """``sweep`` with no trial run, so a CLI test checks only the CLI."""
    return SweepResult(scenarios=list(scenarios or SWEPT),
                       seeds=[base_seed + k for k in range(n_seeds)])


@pytest.mark.parametrize("argv, mode", [
    (["--quick"], "quick"),
    (["--seeds", "3"], "quick"),
    ([], "full"),
    (sum((["--scenario", name] for name in reversed(SWEPT)), []), "full"),
    (["--seeds", "1"], "custom"),
    (["--base-seed", "100"], "custom"),
    (["--quick", "--base-seed", "5"], "custom"),
    (["--quick", "--scenario", SWEPT[0]], "custom"),
], ids=["quick", "seeds-3", "full", "every-scenario-named", "seeds-1",
        "base-seed-100", "quick-base-seed-5", "quick-one-scenario"])
def test_cli_sweep_labels_only_the_whole_registry_quick_or_full(
        monkeypatch, argv, mode):
    import repro.faultlab.__main__ as cli

    labels = []
    monkeypatch.setattr(cli, "sweep", _no_trials)
    monkeypatch.setattr(cli.reportlib, "sweep_report",
                        lambda result, label: labels.append(label) or {})
    assert main(["sweep", "--quiet", *argv]) == 0
    assert labels == [mode]


def test_cli_sweep_makes_the_report_directory_before_any_trial(
        tmp_path, monkeypatch):
    import repro.faultlab.__main__ as cli

    out = tmp_path / "missing" / "report.json"
    seen = []

    def sweep(**kwargs):
        seen.append(out.parent.is_dir())
        return _no_trials(**kwargs)

    monkeypatch.setattr(cli, "sweep", sweep)
    assert main(["sweep", "--quiet", "--quick", "--out", str(out)]) == 0
    assert seen == [True]
    assert json.loads(out.read_text())["mode"] == "quick"


def test_cli_replay_with_a_failing_plan_exits_nonzero(tmp_path, capsys):
    plan = FaultPlan((ReplicaFault(1, "wrong_reply"),
                      ReplicaFault(2, "wrong_reply")))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json())
    code = main(["run", "--scenario", "beyond_f_wrong_reply",
                 "--seed", "0", "--plan", str(plan_file)])
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_a_failing_sweep_prints_a_replay_that_runs(tmp_path, monkeypatch,
                                                   capsys):
    """The sweep writes each shrunk plan beside its report, and the
    replay line it prints and reports reruns that plan to the same
    violations."""
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--scenario", "beyond_f_wrong_reply",
                 "--seeds", "1", "--quiet", "--out", "sweep.json"]) == 1
    printed = [line.split("replay: ", 1)[1]
               for line in capsys.readouterr().out.splitlines()
               if line.lstrip().startswith("replay: ")]
    failure, = json.loads((tmp_path / "sweep.json").read_text())["failures"]
    assert printed == [failure["shrunk"]["replay"]]
    argv = printed[0].split("python -m repro.faultlab ", 1)[1].split()
    assert argv[-2] == "--plan" and (tmp_path / argv[-1]).exists()

    assert main(argv + ["--json", "replay.json"]) == 1
    replayed = json.loads((tmp_path / "replay.json").read_text())
    assert replayed["violations"] == failure["shrunk"]["violations"]
    plan = FaultPlan.from_json((tmp_path / argv[-1]).read_text())
    assert plan.to_dict() == failure["shrunk"]["plan"]
    shrunk = shrink("beyond_f_wrong_reply", 0,
                    run_trial("beyond_f_wrong_reply", 0).plan)
    assert run_trial("beyond_f_wrong_reply", 0, plan=plan).violation_keys() \
        == sorted(v.key for v in shrunk.violations)
