"""The record: its schema, the driver's contract, determinism, the
input fingerprints and the compare verdicts."""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from benchmarks.ledger import run as runner
from benchmarks.ledger.__main__ import BASELINE_SEEDS
from benchmarks.ledger.compare import (Incomparable, compare, validate_ledger,
                                       verdict)
from benchmarks.ledger.metrics import exact_layers
from benchmarks.ledger.workloads import SIZES, WORKLOADS, Window


def _untimed(drive):
    drive()
    return Window(1.0, 1.0, 1.0)


def _ledger(traced, smoke=True):
    return {"schema": 1, "seed": 0, "seconds": 0.0, "smoke": smoke,
            "workloads": {name: copy.deepcopy(record)
                          for name, (record, _) in traced.items()}}


# -- schema and contract ---------------------------------------------------------

def test_ledger_names_every_declared_metric_and_no_other(traced, spec):
    ledger = _ledger(traced)
    validate_ledger(ledger, spec)
    for record in ledger["workloads"].values():
        assert set(record["end_to_end"]) == {m["name"]
                                             for m in spec["end_to_end"]}
        assert set(record["per_layer"]) == {m["name"]
                                            for m in spec["per_layer"]}
        assert record["correct"] and record["failed_ops_share"] == 0


def test_validation_rejects_a_broken_ledger(traced, spec):
    ledger = _ledger(traced)
    del ledger["workloads"]["kv_write"]["end_to_end"]["setup_s"]
    ledger["workloads"]["kv_write"]["per_layer"]["made.up"] = {
        "value": 1, "unit": "count"}
    ledger["workloads"]["sql_faults"]["failed"] = "none"
    with pytest.raises(ValueError) as err:
        validate_ledger(ledger, spec)
    message = str(err.value)
    assert "setup_s" in message and "made.up" in message
    assert "sql_faults" in message and "failed" in message


def test_benchmark_json_is_consistent(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_result_line_is_the_drivers_contract(traced, spec, name):
    record = traced[name][0]
    for trace, kind in ((True, "per_layer"), (False, "end_to_end")):
        result = json.loads(runner.result_line(dict(record, trace=trace)))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            entry = result["metrics"][metric["name"]]
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == metric["unit"]
            if kind == "end_to_end":
                assert entry["value"] > 0, metric["name"]


def test_command_line_runs_and_compares(tmp_path):
    out = tmp_path / "ledger.json"
    base = [sys.executable, "-m", "benchmarks.ledger"]
    done = subprocess.run(
        base + ["run", "--smoke", "--seconds", "0", "--workload", "kv_write",
                "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "host_req_per_s" in done.stdout and "ops/s" in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-2])
    assert last["correct"] is True
    assert list(tmp_path.iterdir()) == [out], "temporary files left behind"
    same = subprocess.run(base + ["compare", str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse: none" in same.stdout


# -- determinism and fingerprints ---------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_twice_is_bit_identical(traced, name):
    size = SIZES[name][1]
    first, second = (WORKLOADS[name](0, size, _untimed) for _ in range(2))
    assert not first.problems and first.failed == 0
    recorded = traced[name][0]["fingerprints"]
    assert first.fingerprint == second.fingerprint == recorded["0"]
    assert len(set(recorded.values())) == len(recorded)
    assert first.counters == second.counters
    assert first.scoped == second.scoped
    assert (first.sim_seconds, first.latency_p50, first.latency_p99) == \
        (second.sim_seconds, second.latency_p50, second.latency_p99)
    assert exact_layers([first]) == exact_layers([second])


def test_committed_fingerprints_cover_the_baseline_seeds():
    with open(runner.HERE / "fingerprints.json", encoding="utf-8") as fh:
        table = json.load(fh)
    assert set(table) == set(WORKLOADS)
    for name, by_seed in table.items():
        assert set(by_seed) == {str(s) for s in BASELINE_SEEDS}, name
        assert len(set(by_seed.values())) == len(by_seed), name


def test_changed_inputs_are_reported():
    with open(runner.HERE / "fingerprints.json", encoding="utf-8") as fh:
        good = json.load(fh)["kv_write"]
    status = runner._fingerprint_status
    assert status("kv_write", False, {"0": good["0"], "1": good["1"]}) == "ok"
    assert status("kv_write", False, {"0": good["0"], "55": "f" * 64}) == \
        "unchecked"
    assert status("kv_write", False, {"0": good["1"]}) == "mismatch"
    assert status("kv_write", True, {"0": good["1"]}) == "unchecked"


# -- compare -------------------------------------------------------------------------

def _entry(value, iqr=0.0, n=12):
    return {"value": value, "q1": value - iqr / 2, "q3": value + iqr / 2,
            "n": n, "unit": "ops/s"}


@pytest.mark.parametrize("a, b, better, noise, expected", [
    (100.0, 100.0, "higher", 0.0, "within-bound"),
    (100.0, 94.0, "higher", 0.0, "within-bound"),
    (100.0, 92.0, "higher", 0.0, "worse"),
    (100.0, 108.0, "higher", 0.0, "better"),
    (100.0, 108.0, "lower", 0.0, "worse"),
    (100.0, 92.0, "lower", 0.0, "better"),
    (100.0, 80.0, "higher", 0.08, "unresolved"),
    (100.0, 100.0, "higher", 0.08, "unresolved"),
])
def test_verdicts_on_synthetic_pairs(a, b, better, noise, expected):
    assert verdict(_entry(a), _entry(b), 0.07, better, noise) == expected


def test_compare_reports_spread_wider_than_bound_as_unresolved(traced, spec):
    a, b = _ledger(traced), _ledger(traced)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "host_req_per_s")
    steady = _entry(1000.0, iqr=10.0)
    for ledger, host in ((a, steady), (b, _entry(800.0, iqr=10.0))):
        for w in ledger["workloads"].values():
            w["end_to_end"]["host_req_per_s"] = dict(host)
            w["end_to_end"]["setup_s"] = _entry(1.0, iqr=0.01)
    wild = _entry(1000.0, iqr=1000.0 * bound * 12 ** 0.5 * 1.5)
    b["workloads"]["kv_write"]["end_to_end"]["host_req_per_s"] = wild
    lines, verdicts = compare(a, b, spec)
    by = {(w, m): v for w, m, v in verdicts}
    assert by[("kv_write", "host_req_per_s")] == "unresolved"
    assert by[("sql_faults", "host_req_per_s")] == "worse"
    assert by[("sql_faults", "sim_latency_p99_ms")] == "within-bound"
    assert by[("sql_faults", "sim_outage_s")] == "within-bound"
    assert ("kv_write", "sim_outage_s") not in by
    assert any("bft.replica.host_self_us_per_req" in line for line in lines)
    # A simulated difference is real however the seeds spread.
    b["workloads"]["sql_faults"]["per_layer"]["sim_outage_s"]["value"] *= 1.2
    b["workloads"]["sql_faults"]["failed_ops_share"] = 0.01
    by = {(w, m): v for w, m, v in compare(a, b, spec)[1]}
    assert by[("sql_faults", "sim_outage_s")] == "worse"
    assert by[("sql_faults", "failed_ops_share")] == "worse"


def test_compare_refuses_different_inputs(traced, spec):
    a, b = _ledger(traced), _ledger(traced)
    b["workloads"]["kv_write"]["fingerprints"]["0"] = "0" * 64
    with pytest.raises(Incomparable):
        compare(a, b, spec)
    with pytest.raises(Incomparable):
        compare(a, _ledger(traced, smoke=False), spec)
