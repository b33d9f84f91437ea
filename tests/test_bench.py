"""``tools/bench.py``.

``record``: one traced and one untraced run per workload and one Tier-1 test
run, written to ``BENCH_<tag>.json`` only when every benchmark run is
correct.  ``compare``: alternating parent/change benchmark runs, each side
running its own benchmark command from its own tree, the comparison rule at
its edges, and no file written when a run is incorrect.

The benchmark command, pytest and the parent's export are replaced by fakes
that print what ``perfbench/run.py`` and ``pytest --durations=10`` print, so
these tests take no timings; only the export test reads a git history, of a
throwaway repository.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def recorder(bench, tmp_path, monkeypatch):
    benchmark = {
        "command": ["python3", "perfbench/run.py"],
        "workloads": [{"name": "crowd"}, {"name": "wide"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    return bench


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


RECORD = ["record", "--tag", "x", "--seed", "53", "--seconds", "2"]


class TestRecord:
    def test_writes_provenance_and_both_metric_sets(self, recorder, monkeypatch, tmp_path):
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        calls = fake_benchmark(monkeypatch, recorder)
        assert recorder.main(RECORD) == 0
        assert calls == [
            ("crowd", "0"), ("crowd", "1"), ("wide", "0"), ("wide", "1"), ("tier1", "src"),
        ]
        doc = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert doc["provenance"] == {
            "commit": "abc", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
            "seed": 53, "seconds": 2.0, "modified": ["src/approvalmle/priors.py"],
            "src_lines": 0, "dont_write_bytecode": False,
        }
        assert list(doc["workloads"]) == ["crowd", "wide"]
        for metrics in doc["workloads"].values():
            assert list(metrics["end_to_end"]) == ["trace0"]
            assert list(metrics["per_layer"]) == ["trace1"]

    def test_records_the_checkouts_src_line_count(self, recorder, monkeypatch, tmp_path):
        # 3 + 2 lines of Python under src/; other files and other trees are not counted
        for name, text in {"src/pkg/a.py": "a\nb\nc\n", "src/pkg/sub/b.py": "x\ny\n",
                           "src/README": "text\n", "tools/c.py": "1\n"}.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        fake_benchmark(monkeypatch, recorder)
        assert recorder.main(RECORD) == 0
        doc = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert doc["provenance"]["src_lines"] == 5

    @pytest.mark.parametrize("value, written", [(None, False), ("", False), ("1", True),
                                                 ("x", True)])
    def test_records_whether_bytecode_writing_is_off(self, recorder, monkeypatch, tmp_path,
                                                      value, written):
        # Python skips writing .pyc files when the variable is a non-empty string
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        fake_benchmark(monkeypatch, recorder)
        assert recorder.main(RECORD) == 0
        doc = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert doc["provenance"]["dont_write_bytecode"] is written

    def test_records_tier1_time_and_slowest_tests(self, recorder, monkeypatch, tmp_path):
        fake_benchmark(monkeypatch, recorder)
        assert recorder.main(RECORD) == 0
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

    def test_refuses_to_write_when_a_run_is_incorrect(self, recorder, monkeypatch, tmp_path,
                                                     capsys):
        fake_benchmark(monkeypatch, recorder, incorrect={("wide", "1")})
        assert recorder.main(RECORD) == 1
        assert not (tmp_path / "BENCH_x.json").exists()
        assert "wide --trace 1: 1 of 4 calls failed" in capsys.readouterr().err

    def test_a_run_that_prints_no_result_line_is_one_line(self, recorder, tmp_path, capsys):
        # a real command that exits 0 after its provenance, with a last line
        # that is not JSON
        fake = tmp_path / "fake_run.py"
        fake.write_text('print("provenance {}")\nprint("interrupted")\n')
        benchmark = {"command": [sys.executable, str(fake)], "workloads": [{"name": "crowd"}]}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
        assert recorder.main(RECORD) == 1
        assert not (tmp_path / "BENCH_x.json").exists()
        assert capsys.readouterr().err == (
            "bench record: not written: crowd --trace 0 printed no result line\n"
        )


PARENT_COMMAND = ["python3", "old/run.py"]
END_TO_END = [
    {"name": "command_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hamming_acc", "unit": "fraction", "better": "higher", "bound": 0.15},
    {"name": "not_printed", "unit": "s", "better": "lower", "bound": 0.1},
]
CHANGE_COMMAND = ["python3", "perfbench/run.py"]


@pytest.fixture
def comparer(bench, tmp_path, monkeypatch):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps({"command": CHANGE_COMMAND, "end_to_end": END_TO_END})
    )
    monkeypatch.setattr(bench, "ROOT", change)

    def export(rev, dest):
        (dest / "BENCHMARK.json").write_text(json.dumps({"command": PARENT_COMMAND}))
        return "f" * 40

    monkeypatch.setattr(bench, "export", export)
    return bench


def fake_runs(monkeypatch, module, times, incorrect=None, more=None):
    """Make each benchmark run print a result whose ``command_s`` is the next
    of ``times[side]``, and whose metric ``name`` in ``more``, when given, is
    the next of ``more[name][side]``; the run numbered ``incorrect``
    (0-based, over all runs) reports ``"correct": false``.  Returns the log
    of runs: (side, command, files in the side's tree)."""
    log = []
    queues = {side: list(values) for side, values in times.items()}
    more_queues = {name: {side: list(values) for side, values in sides.items()}
                   for name, sides in (more or {}).items()}

    def run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "", "")
        side = "change" if Path(cwd) == module.ROOT else "parent"
        log.append((side, argv[:2], sorted(os.listdir(cwd))))
        correct = len(log) - 1 != incorrect
        result = {
            "correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": {
                "command_s": {"value": queues[side].pop(0), "unit": "s"},
                "hamming_acc": {"value": 0.8, "unit": "fraction"},
                **{name: {"value": sides[side].pop(0), "unit": "s"}
                   for name, sides in more_queues.items()},
            },
        }
        provenance = {"commit": side, "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                      "seed": int(argv[argv.index("--seed") + 1])}
        stdout = f"provenance {json.dumps(provenance)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return log


ARGS = ["compare", "--parent", "HEAD", "--workload", "batch-eval", "--tag", "x",
        "--seed", "53", "--seconds", "2"]
# parent runs 1.00..1.09: median 1.045, exclusive quartiles 1.0175 and 1.0725
PARENT = [1.0 + i / 100 for i in range(10)]
IQR = 1.0725 - 1.0175


class TestCompare:
    def test_pairs_alternate_and_each_side_runs_its_own_tree(self, comparer, monkeypatch):
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
        doc = json.loads((comparer.ROOT / "BENCH_x_ab.json").read_text())
        assert [pair["first"] for pair in doc["pairs"]] == ["parent", "change"] * 2
        assert [pair["parent"]["command_s"] for pair in doc["pairs"]] == parent
        assert [pair["change"]["command_s"] for pair in doc["pairs"]] == change
        assert doc["provenance"]["parent"] == "f" * 40
        assert doc["provenance"]["commit"] == "change"
        assert doc["provenance"]["seed"] == 53
        claim = doc["end_to_end"]["command_s"]["verdict"]
        assert claim["faster_pairs"] == 4
        assert claim["enough_pairs"] is False
        assert claim["holds"] is False

    @pytest.mark.parametrize(
        "change, holds",
        [
            ([p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 1], True),  # 9 of 10 better
            ([p - 0.2 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),  # 8 of 10
            ([p - 0.2 for p in PARENT], True),
        ],
        ids=["nine-better", "eight-better", "all-better"],
    )
    def test_verdict_needs_nine_of_ten_faster(self, comparer, change, holds):
        assert comparer.verdict(PARENT, change)["holds"] is holds

    def test_verdict_needs_ten_pairs(self, comparer):
        verdict = comparer.verdict(PARENT[:9], [p - 0.2 for p in PARENT[:9]])
        assert verdict["faster_in_nine_of_ten"] and verdict["gap_above_parent_iqr"]
        assert verdict["holds"] is False

    def test_verdict_needs_a_median_gap_above_the_parent_iqr(self, comparer):
        verdict = comparer.verdict(PARENT, [p - IQR for p in PARENT])
        assert verdict["parent"]["iqr"] == pytest.approx(IQR)
        assert verdict["faster_pairs"] == 10
        # the gap equals the IQR up to rounding on one side or the other
        shifted = [p - 1.01 * IQR for p in PARENT]
        assert comparer.verdict(PARENT, shifted)["holds"] is True
        shifted = [p - 0.99 * IQR for p in PARENT]
        assert comparer.verdict(PARENT, shifted)["holds"] is False

    @pytest.mark.parametrize(
        "name, shift, holds",
        [
            ("setup_s", -0.2, True),  # lower is better: lower in every pair
            ("setup_s", +0.2, False),
            ("hamming_acc", +0.2, True),  # higher is better: higher in every pair
            ("hamming_acc", -0.2, False),
        ],
        ids=["setup-lower", "setup-higher", "accuracy-higher", "accuracy-lower"],
    )
    def test_gain_rule_is_computed_for_every_metric_in_its_direction(
        self, comparer, monkeypatch, capsys, name, shift, holds
    ):
        more = {name: {"parent": PARENT, "change": [p + shift for p in PARENT]}}
        fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": PARENT}, more=more)
        assert comparer.main([*ARGS, "--pairs", "10"]) == 0
        doc = json.loads((comparer.ROOT / "BENCH_x_ab.json").read_text())
        claim = doc["end_to_end"][name]["verdict"]
        assert claim["better"] == ("higher" if name == "hamming_acc" else "lower")
        assert claim["faster_pairs"] == (10 if holds else 0)
        assert claim["median_gap"] == pytest.approx(0.2 if holds else -0.2)
        assert claim["holds"] is holds
        # command_s did not move
        assert doc["end_to_end"]["command_s"]["verdict"]["holds"] is False
        assert "verdict" not in doc
        line = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith(f"{name}: "))
        rule = "holds" if holds else "does not hold"
        assert f"; change better in {10 if holds else 0} of 10 pairs, gain rule {rule};" in line

    def test_verdict_reads_a_higher_is_better_metric_upward(self, comparer):
        nine = [p + 0.2 for p in PARENT[:9]] + [PARENT[9] - 1]
        assert comparer.verdict(PARENT, nine, "higher")["holds"] is True
        assert comparer.verdict(PARENT, nine, "lower")["holds"] is False
        eight = [p + 0.2 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
        assert comparer.verdict(PARENT, eight, "higher")["holds"] is False

    def test_refuses_to_write_when_a_run_is_incorrect(self, comparer, monkeypatch, capsys):
        fake_runs(monkeypatch, comparer, {"parent": [1.0] * 10, "change": [0.5] * 10},
                  incorrect=5)
        assert comparer.main([*ARGS, "--pairs", "10"]) == 1
        assert not (comparer.ROOT / "BENCH_x_ab.json").exists()
        assert "batch-eval --trace 0: 1 of 5 calls failed" in capsys.readouterr().err

    def test_every_end_to_end_metric_gets_one_line(self, comparer, monkeypatch, capsys):
        fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": [p + 1 for p in PARENT]})
        assert comparer.main([*ARGS, "--pairs", "10"]) == 0
        doc = json.loads((comparer.ROOT / "BENCH_x_ab.json").read_text())
        # a metric that no run printed is left out
        assert list(doc["end_to_end"]) == ["command_s", "hamming_acc"]
        assert doc["end_to_end"]["command_s"]["worse"] is True
        assert doc["end_to_end"]["hamming_acc"]["worse"] is False
        lines = [line for line in capsys.readouterr().err.splitlines() if " bound " in line]
        assert len(lines) == 2
        assert lines[0].startswith("command_s: parent median 1.045")
        assert lines[0].endswith(": worse")
        assert lines[1].startswith("hamming_acc: ") and lines[1].endswith(": no regression")

    def test_records_both_sides_src_line_counts(self, comparer, monkeypatch, capsys):
        def write_src(root, files):
            for name, text in files.items():
                (root / "src" / name).parent.mkdir(parents=True, exist_ok=True)
                (root / "src" / name).write_text(text)

        export = comparer.export

        def export_with_src(rev, dest):
            # 3 + 2 lines of Python; the README's line is not counted
            write_src(dest, {"pkg/a.py": "a\nb\nc\n", "pkg/sub/b.py": "x\ny\n",
                             "README": "text\n"})
            return export(rev, dest)

        monkeypatch.setattr(comparer, "export", export_with_src)
        write_src(comparer.ROOT, {"pkg/a.py": "a\n", "b.py": "x\ny\nz\n", "c.txt": "1\n2\n"})
        fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": PARENT})
        assert comparer.main([*ARGS, "--pairs", "10"]) == 0
        doc = json.loads((comparer.ROOT / "BENCH_x_ab.json").read_text())
        assert doc["provenance"]["src_lines"] == {"parent": 5, "change": 4}
        assert "src/ lines: parent 5, change 4, net -1" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("value, written", [(None, False), ("", False), ("1", True)])
    def test_records_whether_bytecode_writing_is_off(self, comparer, monkeypatch, value,
                                                      written):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": PARENT})
        assert comparer.main([*ARGS, "--pairs", "10"]) == 0
        doc = json.loads((comparer.ROOT / "BENCH_x_ab.json").read_text())
        assert doc["provenance"]["dont_write_bytecode"] is written

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    @pytest.mark.parametrize("edited", [False, True], ids=["same", "one-file-changed"])
    def test_records_whether_the_benchmark_changed(self, comparer, monkeypatch, capsys,
                                                   edited):
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        root = comparer.ROOT
        spec = {"command": CHANGE_COMMAND, "paths": ["perfbench"], "end_to_end": END_TO_END}
        tree = {"BENCHMARK.json": json.dumps(spec), "perfbench/run.py": "run\n",
                "perfbench/data/shape.txt": "5 50 250\n", "tools/other.py": "1\n"}
        for name, text in tree.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        subprocess.run(["git", "init", "-q"], cwd=root, check=True)
        (root / ".gitignore").write_text("__pycache__/\n")
        # an ignored file on this side only does not count
        (root / "perfbench" / "__pycache__").mkdir()
        (root / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")

        def export(rev, dest):
            for name, text in tree.items():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                (dest / name).write_text(text)
            if edited:
                (dest / "perfbench" / "run.py").write_text("old run\n")
            (dest / "tools" / "other.py").write_text("outside the paths\n")
            return "f" * 40

        monkeypatch.setattr(comparer, "export", export)
        real_run = subprocess.run
        fake_runs(monkeypatch, comparer, {"parent": PARENT, "change": PARENT})
        fake_run = comparer.subprocess.run

        def run(argv, cwd, **kwargs):
            if argv[:2] == ["git", "ls-files"]:
                return real_run(argv, cwd=cwd, **kwargs)
            return fake_run(argv, cwd, **kwargs)

        monkeypatch.setattr(comparer.subprocess, "run", run)
        assert comparer.main([*ARGS, "--pairs", "10"]) == 0
        doc = json.loads((root / "BENCH_x_ab.json").read_text())
        assert doc["provenance"]["benchmark_same"] is not edited
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("the benchmark differs")]
        assert lines == (["the benchmark differs between the sides: perfbench/run.py"]
                         if edited else [])

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
    def test_regression_is_read_against_the_bound_as_a_fraction(self, comparer, better,
                                                                 change, worse):
        check = comparer.regression(PARENT, change, better, 0.25)
        assert check["allowance"] == pytest.approx(0.25 * 1.045)
        assert check["worse"] is worse
        assert check["unresolved"] is False

    def test_regression_is_unresolved_when_the_parent_spreads_wider_than_the_bound(
        self, comparer
    ):
        parent = [1.0, 2.0] * 5  # IQR 1.0 > 0.25 * median 1.5
        check = comparer.regression(parent, parent, "lower", 0.25)
        assert check["parent"]["iqr"] == pytest.approx(1.0)
        assert (check["worse"], check["unresolved"]) == (False, True)
        # unless every run of the change reads better than every run of the parent
        check = comparer.regression(parent, [0.9] * 10, "lower", 0.25)
        assert check["unresolved"] is False

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_export_reads_only_the_committed_tree_of_a_real_repository(
        self, bench, tmp_path, monkeypatch, capsys
    ):
        for who in ("AUTHOR", "COMMITTER"):
            monkeypatch.setenv(f"GIT_{who}_NAME", "Test")
            monkeypatch.setenv(f"GIT_{who}_EMAIL", "test@example.invalid")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)
        monkeypatch.setattr(bench, "ROOT", repo)

        def git(*args):
            return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                                  check=True).stdout

        git("-c", "init.defaultBranch=main", "init", "-q")
        (repo / "a.txt").write_text("committed\n")
        (repo / "sub" / "b.txt").write_text("committed too\n")
        git("add", "-A")
        git("commit", "-q", "-m", "one")
        (repo / "a.txt").write_text("edited\n")
        (repo / "untracked.txt").write_text("never committed\n")

        def state():
            return git("status", "--porcelain"), git("branch", "--list"), git("worktree", "list")

        before = state()
        tree = tmp_path / "tree"
        tree.mkdir()
        assert bench.export("HEAD", tree) == git("rev-parse", "HEAD").strip()
        assert sorted(str(path.relative_to(tree)) for path in tree.rglob("*")) == [
            "a.txt", "sub", os.path.join("sub", "b.txt"),
        ]
        assert (tree / "a.txt").read_text() == "committed\n"
        assert state() == before

        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(bench.RunFailed, match="no commit 'nope'"):
            bench.export("nope", empty)
        assert list(empty.iterdir()) == []
        args = ["--workload", "crowd", "--tag", "x", "--seed", "53", "--seconds", "2"]
        assert bench.main(["compare", "--parent", "nope", *args]) == 1
        assert "bench compare: not written: no commit 'nope'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as refused:
            bench.main(["compare", "--parent", "HEAD", "--pairs", "1", *args])
        assert refused.value.code == 2
        assert "--pairs must be at least 2" in capsys.readouterr().err
        assert not (repo / "BENCH_x_ab.json").exists()
        assert state() == before
