"""Tests of the benchmark itself, on tiny shapes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "bytes"}


def smoke(capsys, workload: str, trace: int, seed: int = 3) -> tuple:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--smoke"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(capsys, workload):
    result, lines = smoke(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_TIMED_CALLS
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(lines[0].removeprefix("provenance "))
    assert info["seed"] == 3 and info["workload"] == workload and info["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(capsys, workload):
    first, _ = smoke(capsys, workload, trace=1)
    second, _ = smoke(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    counts = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] in COUNT_UNITS
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert counts["trace.unobserved_layers"] == 0
    for layer in workloads.WORKLOADS[workload].layers:
        assert counts[f"{layer}.calls"] > 0


def test_missing_entry_point_is_reported_unobserved(capsys, monkeypatch):
    rerouted = tuple(
        (layer, owner, "no_such_function" if attribute == "total_loglik" else attribute)
        for layer, owner, attribute in tracer.ENTRY_POINTS
    )
    monkeypatch.setattr(tracer, "ENTRY_POINTS", rerouted)
    result, lines = smoke(capsys, "crowd", trace=1)
    metrics = result["metrics"]
    assert metrics["trace.unobserved_layers"]["value"] == 1
    assert metrics["likelihood.calls"]["value"] == 0
    assert "likelihood.busy_s" not in metrics and "likelihood.self_s" not in metrics
    assert "unobserved layers: likelihood" in lines
    assert "missing entry points: approvalmle.amle.no_such_function" in lines


def test_layer_table_splits_self_time_and_counts_recursion_once():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["amle", 1.0, 9.0, 0],
        ["priors", 2.0, 5.0, 1],
        ["priors", 3.0, 4.0, 2],
    ]
    table = tracer.layer_table(spans)
    assert table["cli"] == {"busy_s": 10.0, "self_s": 2.0, "calls": 1}
    assert table["amle"] == {"busy_s": 8.0, "self_s": 5.0, "calls": 1}
    assert table["priors"] == {"busy_s": 3.0, "self_s": 3.0, "calls": 2}
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_checks_flag_bad_reports():
    shape = workloads.WORKLOADS["crowd"].tiny
    report = {
        "alternatives": ["a1", "a2", "a3", "a4", "a5"],
        "estimates": {"z1": ["a1", "a2", "a3"], "z2": ["a1"]},
        "convergence": {"iterations": 2},
        "loglik_trace": [-10.0, -11.0],
    }
    problems, hamming = workloads.check_aggregate_report(
        json.dumps(report).encode(), shape, {"z1": ["a1"], "z2": ["a1"]}
    )
    assert any("outside the bounds" in p for p in problems)
    assert any("log-likelihood fell" in p for p in problems)
    assert hamming == 0.8

    check = run.OutputCheck(workloads.WORKLOADS["batch-eval"], shape, {})
    check(0, b"method,n,metric,mean,ci_low,ci_high\n")
    assert "output differs from the run's first call" in check(0, b"other")
    assert "exit code 1" in check(1, b"method,n,metric,mean,ci_low,ci_high\n")


def test_exits_nonzero_without_result_when_program_is_absent(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
