import json

import pytest

from approvalmle.benchmark import load_benchmark_csv
from approvalmle.cli import main
from approvalmle.io import save_dataset, save_params
from approvalmle.model import ParamVector


@pytest.fixture
def dataset_path(tmp_path, worked_profile):
    path = tmp_path / "dataset.json"
    save_dataset(path, worked_profile)
    return path


@pytest.fixture
def init_file(tmp_path):
    path = tmp_path / "init.json"
    save_params(
        path, ParamVector([0.5] * 3, [0.44, 0.41, 0.32], [0.5] * 5)
    )
    return path


def run(args):
    return main([str(a) for a in args])


class TestAggregate:
    def test_worked_dataset_with_init_file(self, dataset_path, init_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "aggregate", dataset_path,
                "--lower", 1, "--upper", 2,
                "--init", f"file:{init_file}",
                "--tolerance", 1e-5,
                "--prior-update", "legacy",
                "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["estimates"] == {
            "z1": ["a2", "a3"],
            "z2": ["a2", "a3"],
            "z3": ["a2", "a3"],
            "z4": ["a3"],
        }
        assert report["convergence"]["converged"] is True
        assert "metrics" not in report
        shown = capsys.readouterr().out
        assert "z1" in shown and "converged" in shown

    def test_validation_failure_exits_1(self, dataset_path, tmp_path):
        code = run(["aggregate", dataset_path, "--lower", 3, "--upper", 2])
        assert code == 1

    def test_upper_zero_is_legal_and_empty(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["aggregate", dataset_path, "--lower", 0, "--upper", 0, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert all(est == [] for est in report["estimates"].values())

    def test_degenerate_estimation_exits_2(self, tmp_path):
        # full-set bounds leave no negative labels, so q is inestimable
        profile_path = tmp_path / "tiny.json"
        from approvalmle.model import Profile

        save_dataset(profile_path, Profile.build(["a"], ["v"], [[{0}]]))
        code = run(["aggregate", profile_path, "--lower", 1, "--upper", 1])
        assert code == 2

    def test_freeze_priors_echoes_initial_t(self, tmp_path, worked_profile):
        # single-instance dataset: priors cannot be updated
        from approvalmle.model import Profile

        single = Profile.build(
            worked_profile.alternative_ids,
            worked_profile.voters,
            [[b for b in worked_profile.instances[0].ballots]],
        )
        path = tmp_path / "single.json"
        save_dataset(path, single)
        out = tmp_path / "report.json"
        code = run(
            [
                "aggregate", path,
                "--lower", 1, "--upper", 2,
                "--init", "uniform", "--t0", 0.5,
                "--freeze-priors", "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["params"]["t"] == [0.5] * 5

    def test_metrics_present_with_ground_truth(self, tmp_path, worked_profile):
        path = tmp_path / "with_truth.json"
        save_dataset(path, worked_profile, (frozenset({1, 2}),) * 3 + (frozenset({2}),))
        out = tmp_path / "report.json"
        code = run(
            [
                "aggregate", path,
                "--lower", 1, "--upper", 2,
                "--init", "uniform", "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["metrics"]) == {"hamming", "subset", "harmonic", "harmonic_norm"}

    def test_unknown_init_exits_1(self, dataset_path):
        assert run(["aggregate", dataset_path, "--init", "bogus"]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["aggregate", tmp_path / "absent.json"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--tolerance", 0], ["--epsilon-clamp", 0.7]], ids=["tolerance", "epsilon"]
    )
    def test_bad_config_exits_1(self, dataset_path, flags, capsys):
        assert run(["aggregate", dataset_path, *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEvaluate:
    def test_equal_files_score_one(self, tmp_path):
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"z1": ["a"], "z2": ["b"]}))
        code = run(["evaluate", est, est, "--alternatives", "a,b"])
        assert code == 0

    def test_metrics_values(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps({"z": ["a", "c"]}))
        tru.write_text(json.dumps({"z": ["a", "b"]}))
        code = run(["evaluate", est, tru, "--alternatives", "a,b,c,d,e"])
        assert code == 0
        out = capsys.readouterr().out
        lines = {
            parts[0]: float(parts[1])
            for parts in (line.split() for line in out.strip().splitlines())
        }
        assert lines["hamming"] == pytest.approx(0.6)
        assert lines["subset"] == 0.0

    def test_id_mismatch_exits_1(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps({"z1": ["a"]}))
        tru.write_text(json.dumps({"z2": ["a"]}))
        code = run(["evaluate", est, tru])
        assert code == 1
        err = capsys.readouterr().err
        assert "z1" in err and "z2" in err


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["simulate", "--seed", 3, "--out", out1, "--quiet"]) == 0
        assert run(["simulate", "--seed", 3, "--out", out2, "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_noiseless_ballots_equal_truth(self, tmp_path):
        out = tmp_path / "clean.json"
        code = run(
            [
                "simulate", "--n", 3, "--p", "0.999999", "--q", "0.000001",
                "--seed", 1, "--out", out, "--quiet",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for inst in doc["instances"]:
            truth = sorted(doc["ground_truth"][inst["id"]])
            for ballot in inst["ballots"].values():
                assert sorted(ballot) == truth

    def test_default_regime_bounds(self, tmp_path):
        out = tmp_path / "default.json"
        assert run(["simulate", "--seed", 0, "--out", out, "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["alternatives"]) == 5
        sizes = {len(v) for v in doc["ground_truth"].values()}
        assert sizes <= {1, 2}

    def test_bad_rates_exit_1(self, tmp_path):
        assert run(["simulate", "--p", "1.5", "--out", tmp_path / "x.json"]) == 1


class TestBenchmark:
    @pytest.fixture
    def truth_dataset(self, tmp_path):
        from approvalmle.synth import SynthSpec, sample_dataset
        from approvalmle.model import Bounds

        spec = SynthSpec.homogeneous(4, 12, 5, Bounds(1, 2), 0.8, 0.25, seed=9)
        profile, truths = sample_dataset(spec)
        path = tmp_path / "synthetic.json"
        save_dataset(path, profile, truths)
        return path

    def test_runs_and_emits_csv(self, truth_dataset, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(
            [
                "benchmark", truth_dataset,
                "--batch-sizes", "4,8", "--batches", 3,
                "--lower", 1, "--upper", 2,
                "--init", "uniform", "--seed", 0,
                "--out", out,
            ]
        )
        assert code == 0
        rows = load_benchmark_csv(out)
        methods = {r.method for r in rows}
        assert methods == {"amle-constrained", "amle-free", "modal", "majority"}
        assert {r.n for r in rows} == {4, 8}
        printed = capsys.readouterr().out
        # the plot file parses back into exactly the table that was printed
        from approvalmle.benchmark import format_benchmark_table

        assert format_benchmark_table(rows) in printed

    def test_single_batch_has_zero_width_interval(self, truth_dataset, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            [
                "benchmark", truth_dataset,
                "--batch-sizes", "12", "--batches", 1,
                "--lower", 1, "--upper", 2,
                "--init", "uniform", "--out", out,
            ]
        )
        assert code == 0
        for row in load_benchmark_csv(out):
            assert row.ci_low == row.mean == row.ci_high

    def test_deterministic_given_seed(self, truth_dataset, tmp_path):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        args = [
            "benchmark", truth_dataset,
            "--batch-sizes", "6", "--batches", 2,
            "--lower", 1, "--upper", 2,
            "--init", "uniform", "--seed", 5,
        ]
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_oversized_batch_exits_1(self, truth_dataset, tmp_path):
        code = run(
            [
                "benchmark", truth_dataset,
                "--batch-sizes", "40", "--batches", 2,
                "--out", tmp_path / "x.csv",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--init", "random:abc"], ["--init", "bogus"], ["--tolerance", 0]],
        ids=["init-seed", "init-name", "tolerance"],
    )
    def test_bad_flag_exits_1(self, truth_dataset, tmp_path, flags, capsys):
        code = run(
            ["benchmark", truth_dataset, "--batch-sizes", "4", *flags,
             "--out", tmp_path / "x.csv"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_ground_truth_exits_1(self, tmp_path, worked_profile):
        path = tmp_path / "no_truth.json"
        save_dataset(path, worked_profile)
        code = run(
            ["benchmark", path, "--batch-sizes", "2", "--out", tmp_path / "x.csv"]
        )
        assert code == 1


def test_report_dir_env_var(tmp_path, monkeypatch, worked_profile):
    dataset = tmp_path / "dataset.json"
    save_dataset(dataset, worked_profile)
    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    monkeypatch.setenv("APPROVALMLE_REPORT_DIR", str(report_dir))
    code = run(
        [
            "aggregate", dataset, "--lower", 1, "--upper", 2,
            "--init", "uniform", "--out", "run.json", "--quiet",
        ]
    )
    assert code == 0
    assert (report_dir / "run.json").exists()


def test_usage_error_exits_1():
    assert run(["aggregate"]) == 1


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1
