"""``tools/bench_compare.py``: alternating parent/change benchmark runs,
each side running its own benchmark command from its own tree, the
comparison rule at its edges, and no file written when a run is incorrect.

The parent's export and every subprocess are replaced by fakes, so these
tests take no timings and read no git history.
"""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
PARENT_COMMAND = ["python3", "old/run.py"]
END_TO_END = [
    {"name": "command_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hamming_acc", "unit": "fraction", "better": "higher", "bound": 0.15},
    {"name": "not_printed", "unit": "s", "better": "lower", "bound": 0.1},
]
CHANGE_COMMAND = ["python3", "perfbench/run.py"]


@pytest.fixture
def comparer(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps({"command": CHANGE_COMMAND, "end_to_end": END_TO_END})
    )
    monkeypatch.setattr(module.rec, "ROOT", change)

    def export(rev, dest):
        (dest / "BENCHMARK.json").write_text(json.dumps({"command": PARENT_COMMAND}))
        return "f" * 40

    monkeypatch.setattr(module, "export", export)
    return module


def fake_runs(monkeypatch, module, times, incorrect=None):
    """Make each benchmark run print a result whose ``command_s`` is the next
    of ``times[side]``; the run numbered ``incorrect`` (0-based, over all
    runs) reports ``"correct": false``.  Returns the log of runs:
    (side, command, files in the side's tree)."""
    log = []
    queues = {side: list(values) for side, values in times.items()}

    def run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "", "")
        side = "change" if Path(cwd) == module.rec.ROOT else "parent"
        log.append((side, argv[:2], sorted(os.listdir(cwd))))
        correct = len(log) - 1 != incorrect
        result = {
            "correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": {
                "command_s": {"value": queues[side].pop(0), "unit": "s"},
                "hamming_acc": {"value": 0.8, "unit": "fraction"},
            },
        }
        provenance = {"commit": side, "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                      "seed": int(argv[argv.index("--seed") + 1])}
        stdout = f"provenance {json.dumps(provenance)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(module.rec.subprocess, "run", run)
    return log


ARGS = ["--parent", "HEAD", "--workload", "batch-eval", "--tag", "x", "--seed", "53",
        "--seconds", "2"]


def test_pairs_alternate_and_each_side_runs_its_own_tree(comparer, monkeypatch):
    parent = [1.0, 1.1, 1.2, 1.3]
    change = [0.5, 0.6, 0.7, 0.8]
    log = fake_runs(monkeypatch, comparer, {"parent": parent, "change": change})
    assert comparer.main([*ARGS, "--pairs", "4"]) == 0
    assert [side for side, _, _ in log] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent",
    ]
    for side, command, files in log:
        assert command == (PARENT_COMMAND if side == "parent" else CHANGE_COMMAND)
        if side == "parent":
            assert files == ["BENCHMARK.json"]  # nothing copied into the parent's tree
    doc = json.loads((comparer.rec.ROOT / "BENCH_x_ab.json").read_text())
    assert [pair["first"] for pair in doc["pairs"]] == ["parent", "change"] * 2
    assert [pair["parent"]["command_s"] for pair in doc["pairs"]] == parent
    assert [pair["change"]["command_s"] for pair in doc["pairs"]] == change
    assert doc["provenance"]["parent"] == "f" * 40
    assert doc["provenance"]["commit"] == "change"
    assert doc["provenance"]["seed"] == 53
    assert doc["verdict"]["faster_pairs"] == 4
    assert doc["verdict"]["enough_pairs"] is False
    assert doc["verdict"]["holds"] is False


# parent runs 1.00..1.09: median 1.045, exclusive quartiles 1.0175 and 1.0725
PARENT = [1.0 + i / 100 for i in range(10)]
IQR = 1.0725 - 1.0175


@pytest.mark.parametrize(
    "change, holds",
    [
        ([p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 1], True),  # 9 of 10 better
        ([p - 0.2 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),  # 8 of 10
        ([p - 0.2 for p in PARENT], True),
    ],
    ids=["nine-better", "eight-better", "all-better"],
)
def test_verdict_needs_nine_of_ten_faster(comparer, change, holds):
    assert comparer.verdict(PARENT, change)["holds"] is holds


def test_verdict_needs_ten_pairs(comparer):
    verdict = comparer.verdict(PARENT[:9], [p - 0.2 for p in PARENT[:9]])
    assert verdict["faster_in_nine_of_ten"] and verdict["gap_above_parent_iqr"]
    assert verdict["holds"] is False


def test_verdict_needs_a_median_gap_above_the_parent_iqr(comparer):
    verdict = comparer.verdict(PARENT, [p - IQR for p in PARENT])
    assert verdict["parent"]["iqr"] == pytest.approx(IQR)
    assert verdict["faster_pairs"] == 10
    # the gap equals the IQR up to rounding on one side or the other
    shifted = [p - 1.01 * IQR for p in PARENT]
    assert comparer.verdict(PARENT, shifted)["holds"] is True
    shifted = [p - 0.99 * IQR for p in PARENT]
    assert comparer.verdict(PARENT, shifted)["holds"] is False


def test_refuses_to_write_when_a_run_is_incorrect(comparer, monkeypatch, capsys):
    fake_runs(monkeypatch, comparer, {"parent": [1.0] * 10, "change": [0.5] * 10},
              incorrect=5)
    assert comparer.main([*ARGS, "--pairs", "10"]) == 1
    assert not (comparer.rec.ROOT / "BENCH_x_ab.json").exists()
    assert "batch-eval --trace 0: 1 of 5 calls failed" in capsys.readouterr().err


def test_every_end_to_end_metric_gets_one_line(comparer, monkeypatch, capsys):
    fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": [p + 1 for p in PARENT]})
    assert comparer.main([*ARGS, "--pairs", "10"]) == 0
    doc = json.loads((comparer.rec.ROOT / "BENCH_x_ab.json").read_text())
    # a metric that no run printed is left out
    assert list(doc["end_to_end"]) == ["command_s", "hamming_acc"]
    assert doc["end_to_end"]["command_s"]["worse"] is True
    assert doc["end_to_end"]["hamming_acc"]["worse"] is False
    lines = [line for line in capsys.readouterr().err.splitlines() if " bound " in line]
    assert len(lines) == 2
    assert lines[0].startswith("command_s: parent median 1.045") and lines[0].endswith(": worse")
    assert lines[1].startswith("hamming_acc: ") and lines[1].endswith(": no regression")


@pytest.mark.parametrize(
    "better, change, worse",
    [
        ("lower", [p * 1.2 for p in PARENT], False),  # 20% slower, bound 25%
        ("lower", [p * 1.3 for p in PARENT], True),
        ("higher", [p * 0.8 for p in PARENT], False),  # 20% lower, bound 25%
        ("higher", [p * 0.7 for p in PARENT], True),
        ("higher", [p * 1.3 for p in PARENT], False),
    ],
    ids=["slower-within", "slower-beyond", "lower-within", "lower-beyond", "higher"],
)
def test_regression_is_read_against_the_bound_as_a_fraction(comparer, better, change, worse):
    check = comparer.regression(PARENT, change, better, 0.25)
    assert check["allowance"] == pytest.approx(0.25 * 1.045)
    assert check["worse"] is worse
    assert check["unresolved"] is False


def test_regression_is_unresolved_when_the_parent_spreads_wider_than_the_bound(comparer):
    parent = [1.0, 2.0] * 5  # IQR 1.0 > 0.25 * median 1.5
    check = comparer.regression(parent, parent, "lower", 0.25)
    assert check["parent"]["iqr"] == pytest.approx(1.0)
    assert (check["worse"], check["unresolved"]) == (False, True)
    # unless every run of the change reads better than every run of the parent
    check = comparer.regression(parent, [0.9] * 10, "lower", 0.25)
    assert check["unresolved"] is False
