"""``tools/bench_record.py``: one traced and one untraced run per workload
and one Tier-1 test run, written to ``BENCH_<tag>.json`` only when every
benchmark run is correct.

The benchmark command and pytest are replaced by fakes that print what
``perfbench/run.py`` and ``pytest --durations=10`` print, so these tests
take no timings.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    benchmark = {
        "command": ["python3", "perfbench/run.py"],
        "workloads": [{"name": "crowd"}, {"name": "wide"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


PYTEST_OUTPUT = """\
........s.......                                                         [100%]
============================= slowest 10 durations =============================
3.81s call     tests/test_acceptance.py::test_c08
1.02s call     tests/test_differential.py::TestSweep::test_matches[exact]
0.50s setup    tests/test_cli.py::TestBenchmark::test_runs
(7 durations < 0.005s hidden.  Use -vv to show these durations.)
316 passed, 1 skipped in 29.00s
"""


def fake_benchmark(monkeypatch, module, incorrect=()):
    """Make every benchmark run print a provenance and a result line, and
    pytest print ``PYTEST_OUTPUT``; the runs named ``(workload, trace)`` in
    ``incorrect`` report ``"correct": false``."""
    calls = []

    def run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, " M src/approvalmle/priors.py\n", "")
        if argv[1:] == module.TIER1:
            calls.append(("tier1", kwargs["env"]["PYTHONPATH"].split(module.os.pathsep)[0]))
            return subprocess.CompletedProcess(argv, 0, PYTEST_OUTPUT, "")
        workload = argv[argv.index("--workload") + 1]
        trace = argv[argv.index("--trace") + 1]
        calls.append((workload, trace))
        provenance = {
            "commit": "abc", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
            "seed": int(argv[argv.index("--seed") + 1]), "workload": workload,
        }
        correct = (workload, trace) not in incorrect
        result = {
            "correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "metrics": {f"trace{trace}": {"value": 1.5, "unit": "s"}},
        }
        stdout = f"provenance {json.dumps(provenance)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return calls


def test_writes_provenance_and_both_metric_sets(recorder, monkeypatch, tmp_path):
    calls = fake_benchmark(monkeypatch, recorder)
    assert recorder.main(["--tag", "x", "--seed", "53", "--seconds", "2"]) == 0
    assert calls == [
        ("crowd", "0"), ("crowd", "1"), ("wide", "0"), ("wide", "1"), ("tier1", "src"),
    ]
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["provenance"] == {
        "commit": "abc", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
        "seed": 53, "seconds": 2.0, "modified": ["src/approvalmle/priors.py"],
    }
    assert list(doc["workloads"]) == ["crowd", "wide"]
    for metrics in doc["workloads"].values():
        assert list(metrics["end_to_end"]) == ["trace0"]
        assert list(metrics["per_layer"]) == ["trace1"]


def test_records_tier1_time_and_slowest_tests(recorder, monkeypatch, tmp_path):
    fake_benchmark(monkeypatch, recorder)
    assert recorder.main(["--tag", "x", "--seed", "53", "--seconds", "2"]) == 0
    tier1 = json.loads((tmp_path / "BENCH_x.json").read_text())["tier1"]
    assert tier1["wall_s"] >= 0
    assert tier1["exit_code"] == 0
    assert tier1["summary"] == "316 passed, 1 skipped in 29.00s"
    assert tier1["slowest"] == [
        {"test": "tests/test_acceptance.py::test_c08", "phase": "call", "s": 3.81},
        {"test": "tests/test_differential.py::TestSweep::test_matches[exact]",
         "phase": "call", "s": 1.02},
        {"test": "tests/test_cli.py::TestBenchmark::test_runs", "phase": "setup", "s": 0.5},
    ]


def test_refuses_to_write_when_a_run_is_incorrect(recorder, monkeypatch, tmp_path, capsys):
    fake_benchmark(monkeypatch, recorder, incorrect={("wide", "1")})
    assert recorder.main(["--tag", "x", "--seed", "53", "--seconds", "2"]) == 1
    assert not (tmp_path / "BENCH_x.json").exists()
    assert "wide --trace 1: 1 of 4 calls failed" in capsys.readouterr().err
