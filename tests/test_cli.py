import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import operator
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from approvalmle import cli
from approvalmle.benchmark import BENCHMARK_HEADER, BenchmarkRow
from approvalmle.cli import main
from approvalmle.io import save_dataset
from approvalmle.model import Bounds
from approvalmle.reliability import DegenerateEstimate
from approvalmle.synth import SynthSpec, sample_dataset


@pytest.fixture
def dataset_path(tmp_path, worked_profile):
    path = tmp_path / "dataset.json"
    save_dataset(path, worked_profile)
    return path


@pytest.fixture
def init_file(tmp_path):
    path = tmp_path / "init.json"
    path.write_text(json.dumps({"p": [0.5] * 3, "q": [0.44, 0.41, 0.32], "t": [0.5] * 5}))
    return path


def run(args):
    return main([str(a) for a in args])


def read_benchmark_rows(path) -> list:
    """The rows of a ``benchmark`` CSV, under its fixed header."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header == BENCHMARK_HEADER
    return [
        BenchmarkRow(method, int(n), metric, *map(float, values))
        for method, n, metric, *values in records
    ]


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

    @pytest.mark.parametrize(
        "shape, digest",
        [
            (
                (5, 10, 30, 1, 2, 0.5, 11),
                "9404ac777b836b326c52213e53a756768024f7467250528e1d840ae160415d08",
            ),
            (
                (12, 4, 6, 2, 4, 0.25, 12),
                "be4c78eb4be01779afc7bf4e6835df0a9ef7fba3a583491d28129f998ec015ef",
            ),
            # counting rows 13 wide, continued through odd and even counts of coins
            (
                (30, 6, 20, 3, 12, 0.2, 13),
                "c7cb2b88602cc578f2c2aea673a5a716648b6ece400f2132e21feee8a822e26a",
            ),
            # u = m: the normalizer reads column m, one past the sweep's own rows
            (
                (8, 5, 15, 2, 8, 0.4, 14),
                "8bad3c27a20df1cf82c27b5c37772e29be3f9cee6dcdba960bb44382a612ebe6",
            ),
        ],
        ids=["crowd-like", "wide-like", "wide-bounds", "upper-at-m"],
    )
    def test_seeded_report_is_pinned(self, tmp_path, monkeypatch, shape, digest):
        # the report names the dataset as given, so the run reads a relative path
        monkeypatch.chdir(tmp_path)
        m, n, instances, lower, upper, t, seed = shape
        spec = SynthSpec.homogeneous(m, n, instances, Bounds(lower, upper), 0.7, 0.4, seed, t)
        save_dataset("data.json", *sample_dataset(spec))
        args = ["--lower", lower, "--upper", upper, "--max-iter", 10, "--quiet"]
        assert run(["aggregate", "data.json", *args, "--out", "report.json"]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest

    def test_upper_zero_is_legal_and_empty(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["aggregate", dataset_path, "--lower", 0, "--upper", 0, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert all(est == [] for est in report["estimates"].values())

    def test_degenerate_estimation_exits_2(self, tmp_path, capsys):
        # full-set bounds leave no negative labels, so q is inestimable
        profile_path = tmp_path / "tiny.json"
        from approvalmle.model import Profile

        save_dataset(profile_path, Profile.build(["a"], ["v"], [[{0}]]))
        code = run(
            ["aggregate", profile_path, "--lower", 1, "--upper", 1, "--init", "uniform"]
        )
        assert code == 2
        assert "every truth set is full" in capsys.readouterr().err

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

    def test_out_of_range_uniform_rate_exits_1(self, dataset_path, capsys):
        assert run(["aggregate", dataset_path, "--init", "uniform", "--p0", 1.5]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "p0" in err
        assert len(err.strip().splitlines()) == 1

    def test_init_file_for_other_shape_exits_1(self, dataset_path, tmp_path, capsys):
        # the worked profile has 3 voters and 5 alternatives
        for p, t in (([0.6] * 4, [0.5] * 5), ([0.6] * 3, [0.5] * 2)):
            path = tmp_path / "params.json"
            path.write_text(json.dumps({"p": p, "q": [0.4] * len(p), "t": t}))
            assert run(["aggregate", dataset_path, "--init", f"file:{path}"]) == 1
            err = capsys.readouterr().err
            assert err == (
                "error: parameters sized for a different profile: ballots of shape "
                f"(3, 5), parameters for (n, m) = ({len(p)}, {len(t)})\n"
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("q", [0.4] * 2), ("p", [[0.6]] * 3), ("p", 0.6), ("t", [0.5] * 4 + [1.0]),
            ("p", ["0.6"] * 3),
        ],
        ids=["short-q", "column-p", "scalar-p", "t-outside-unit", "string-p"],
    )
    def test_init_file_with_bad_field_exits_1(
        self, dataset_path, tmp_path, field, value, capsys
    ):
        path = tmp_path / "params.json"
        doc = {"p": [0.6] * 3, "q": [0.4] * 3, "t": [0.5] * 5, field: value}
        path.write_text(json.dumps(doc))
        assert run(["aggregate", dataset_path, "--init", f"file:{path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} ") and err.count("\n") == 1

    def test_init_file_not_json_exits_1(self, dataset_path, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        assert run(["aggregate", dataset_path, "--init", f"file:{path}"]) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [{"ballots": {"v": ["a"]}}, ["a"]], ids=["no-id", "not-an-object"]
    )
    def test_malformed_instance_entry_exits_1(self, tmp_path, entry, capsys):
        path = tmp_path / "bad.json"
        doc = {"alternatives": ["a"], "voters": ["v"], "instances": [entry]}
        path.write_text(json.dumps(doc))
        assert run(["aggregate", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: instance entry 0")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("alternatives", 5), ("voters", "v"), ("instances", 7)],
        ids=["alternatives-int", "voters-string", "instances-int"],
    )
    def test_field_that_is_not_a_list_exits_1(self, tmp_path, key, value, capsys):
        path = tmp_path / "bad.json"
        doc = {"alternatives": ["a"], "voters": ["v"], "instances": [], key: value}
        path.write_text(json.dumps(doc))
        assert run(["aggregate", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key!r} must be a list" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tolerance", 0], "tolerance must be finite and positive, got 0.0"),
            (["--epsilon-clamp", 0.7], "epsilon_clamp must be in (0, 0.5), got 0.7"),
            # a report would hold NaN or Infinity, which is not JSON
            (["--tolerance", "nan"], "tolerance must be finite and positive, got nan"),
            (["--tolerance", "inf"], "tolerance must be finite and positive, got inf"),
            (["--max-iter", 0], "max_iterations must be at least 1"),
        ],
        ids=["tolerance", "epsilon", "tolerance-nan", "tolerance-inf", "max-iter"],
    )
    def test_bad_config_exits_1(self, dataset_path, tmp_path, flags, message, capsys):
        out = tmp_path / "report.json"
        assert run(["aggregate", dataset_path, *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("init", ["anna-karenina", "uniform", "random:3"])
    def test_bad_t0_is_named_under_every_strategy(self, dataset_path, tmp_path, init, capsys):
        out = tmp_path / "report.json"
        assert run(["aggregate", dataset_path, "--init", init, "--t0", 1.5, "--out", out]) == 1
        assert capsys.readouterr().err == "error: t0 must lie strictly in (0, 1), got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, data",
        [
            ("d.csv", b"instance_id,voter_id,alternative_id,approved\nz,\xffv,a,1\n"),
            ("d.json", b'{"alternatives": ["a"], "voters": ["\xffv"], "instances": []}'),
        ],
        ids=["csv", "json"],
    )
    def test_non_utf8_dataset_exits_1_naming_the_file(self, tmp_path, name, data, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["aggregate", path]) == 1
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n"

    def test_non_utf8_init_file_exits_1_naming_the_file(self, dataset_path, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_bytes(b'{"p": [0.6], "\xff": 1}')
        assert run(["aggregate", dataset_path, "--init", f"file:{path}"]) == 1
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n"

    def test_negative_init_seed_exits_1_naming_the_seed(self, dataset_path, capsys):
        assert run(["aggregate", dataset_path, "--init", "random:-3"]) == 1
        assert capsys.readouterr().err == (
            "error: bad seed in initialization strategy 'random:-3'; expected "
            "random:<non-negative integer>\n"
        )


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

    def test_not_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        assert run(["evaluate", path, path]) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    def test_id_mismatch_exits_1(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps({"z1": ["a"]}))
        tru.write_text(json.dumps({"z2": ["a"]}))
        code = run(["evaluate", est, tru])
        assert code == 1
        err = capsys.readouterr().err
        assert "z1" in err and "z2" in err

    @pytest.mark.parametrize(
        "estimates, message",
        [
            ({"estimates": [1, 2]}, "'estimates' must map instance ids to lists"),
            ({"z1": 5}, "the file must map instance ids to lists"),
            ({"z1": "a1"}, "the file must map instance ids to lists"),
            ({"estimates": {"z1": ["a1"]}, "alternatives": 5}, "'alternatives' must be a list"),
            ({"z1": [["a"]]}, "the file must map instance ids to lists"),
            ({"z1": ["a", 1]}, "the file must map instance ids to lists"),
            (
                {"estimates": {"z1": ["a1"]}, "alternatives": [["a1"]]},
                "'alternatives' must be a list of id strings",
            ),
            (
                {"estimates": {"z1": ["a1"]}, "alternatives": [{"a1": 1}]},
                "'alternatives' must be a list of id strings",
            ),
            (
                {"ground_truth": {"z1": ["a1"]}, "alternatives": [["a1"]]},
                "'alternatives' must be a list of id strings",
            ),
        ],
        ids=[
            "estimates-not-object",
            "value-not-list",
            "value-string",
            "alternatives-not-list",
            "member-list",
            "member-int",
            "alternative-list",
            "alternative-object",
            "ground-truth-alternative-list",
        ],
    )
    def test_malformed_assignment_exits_1(self, tmp_path, estimates, message, capsys):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps(estimates))
        tru.write_text(json.dumps({"z1": ["a1"]}))
        assert run(["evaluate", est, tru, "--alternatives", "a1,a2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "estimates, flags",
        [
            ({"z1": ["a"]}, ["--alternatives", "a,a,b"]),
            ({"estimates": {"z1": ["a"]}, "alternatives": ["a", "a", "b"]}, []),
        ],
        ids=["flag", "report"],
    )
    def test_repeated_alternative_ids_exit_1(self, tmp_path, capsys, estimates, flags):
        # scored over the columns a, a, b, the estimate {a} against the truth
        # {b} would read hamming 1/3, not 0
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps(estimates))
        tru.write_text(json.dumps({"z1": ["b"]}))
        assert run(["evaluate", est, tru, *flags]) == 1
        err = capsys.readouterr().err
        assert err == "error: alternative ids must be distinct; repeated: ['a']\n"

    def test_no_instances_exits_1(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        est.write_text("{}")
        assert run(["evaluate", est, est]) == 1
        err = capsys.readouterr().err
        assert err == "error: the assignments name no instances, so there is nothing to score\n"

    def test_no_alternatives_exits_1(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"z1": [], "z2": []}))
        assert run(["evaluate", est, est]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--alternatives" in err
        assert run(["evaluate", est, est, "--alternatives", "a"]) == 0


    def test_unknown_alternative_is_named_with_its_instance(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps({"z1": ["a", "zz"]}))
        tru.write_text(json.dumps({"z1": ["a"]}))
        assert run(["evaluate", est, tru, "--alternatives", "a,b"]) == 1
        assert capsys.readouterr().err == (
            f"error: {est}: the assignment of instance 'z1' names unknown alternative 'zz'\n"
        )

    @pytest.mark.parametrize(
        "estimates, truths, named",
        [
            ({"z1": ["a"]}, {"z2": ["a"]}, "unknown instances ['z1'] and omits instances ['z2']"),
            ({"z1": ["a"]}, {"z1": ["a"], "z2": []}, "unknown instances [] and omits instances "
             "['z2']"),
            ({}, {"z1": ["a"]}, "unknown instances [] and omits instances ['z1']"),
            ({"z2": [], "z1": ["a"]}, {}, "unknown instances ['z1', 'z2'] and omits instances []"),
        ],
        ids=["disjoint", "omits", "empty-estimates", "empty-truths"],
    )
    def test_instances_that_differ_are_one_line_naming_both_sides(
        self, tmp_path, capsys, estimates, truths, named
    ):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps(estimates))
        tru.write_text(json.dumps(truths))
        assert run(["evaluate", est, tru, "--alternatives", "a,b"]) == 1
        assert capsys.readouterr().err == f"error: {est}: the assignment names {named}\n"

    @pytest.mark.parametrize(
        "estimates, truths, flags, message",
        [
            ({"z1": []}, {}, [],
             "{est}: the assignment names unknown instances ['z1'] and omits instances []"),
            ({}, {}, [], "the assignments name no instances, so there is nothing to score"),
            ({"z1": [], "z2": []}, {"z2": [], "z1": []}, [],
             "the assignments name no alternatives; pass them with --alternatives"),
            ({"z1": ["b"]}, {"z1": []}, ["--alternatives", "a,a"],
             "{est}: the assignment of instance 'z1' names unknown alternative 'b'"),
        ],
        ids=["instances-before-alternatives", "no-instances", "no-alternatives",
             "unknown-before-repeated"],
    )
    def test_the_reader_refuses_before_the_scoring_checks(
        self, tmp_path, capsys, estimates, truths, flags, message
    ):
        est = tmp_path / "est.json"
        tru = tmp_path / "tru.json"
        est.write_text(json.dumps(estimates))
        tru.write_text(json.dumps(truths))
        assert run(["evaluate", est, tru, *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(est=est)}\n")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_reproduces_the_metrics_of_the_aggregate_report(self, tmp_path, seed):
        # scored in the dataset's instance order, every float matches bit for bit
        data, report, metrics = (tmp_path / name for name in ("d.json", "r.json", "m.json"))
        assert run(["simulate", "--m", 7, "--n", 9, "--instances", 40, "--lower", 1,
                    "--upper", 4, "--seed", seed, "--out", data, "--quiet"]) == 0
        assert run(["aggregate", data, "--lower", 1, "--upper", 4, "--out", report,
                    "--quiet"]) == 0
        assert run(["evaluate", report, data, "--out", metrics]) == 0
        expected = json.loads(report.read_text())["metrics"]
        assert json.loads(metrics.read_text()) == expected


class TestSimulate:
    def test_prints_what_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--out", out]) == 0
        assert capsys.readouterr().out == (
            f"wrote 15 instances, 10 voters, 5 alternatives to {out}\n"
        )

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["simulate", "--seed", 3, "--out", out1, "--quiet"]) == 0
        assert run(["simulate", "--seed", 3, "--out", out2, "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "01ccad3279410c39a4100c60498873922beeaae135ba725a8a2dacf26016fad1"),
            (7, "e600f7b112ffaf4b94d9dd557ef8c19ce7c582f06876add2eb6b530b002ea6a6"),
        ],
    )
    def test_seeded_output_is_pinned(self, tmp_path, seed, digest):
        out = tmp_path / "synthetic.json"
        assert run(["simulate", "--seed", seed, "--out", out, "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_bad_rates_exit_1(self, tmp_path, capsys):
        for flags, message in (
            (["--p", "1.5"], "p must lie strictly in (0, 1), got 1.5"),
            (["--n", 3, "--p", "0.5,0.6"], "--p needs 1 or 3 comma-separated values"),
        ):
            assert run(["simulate", *flags, "--out", tmp_path / "x.json"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_rate_that_is_not_a_number_exits_1_naming_the_flag(self, tmp_path, capsys):
        assert run(["simulate", "--p", "0.5,x", "--out", tmp_path / "x.json"]) == 1
        assert capsys.readouterr().err == (
            "error: --p must be comma-separated numbers, got '0.5,x'\n"
        )

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["simulate", "--seed", -3, "--out", out]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_negative_instances_exit_1(self, tmp_path, capsys):
        assert run(["simulate", "--instances", -1, "--out", tmp_path / "x.json"]) == 1
        assert capsys.readouterr().err == "error: --instances must be at least 1, got -1\n"

    @pytest.mark.parametrize(
        "flag, value", [("m", -1), ("m", 0), ("n", 0), ("n", -2), ("instances", 0)]
    )
    def test_size_below_one_exits_1(self, tmp_path, flag, value, capsys):
        # checked before the rates, whose count message would mislead
        out = tmp_path / "x.json"
        assert run(["simulate", f"--{flag}", value, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --{flag} must be at least 1, got {value}\n"
        assert not out.exists()


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
        rows = read_benchmark_rows(out)
        methods = {r.method for r in rows}
        assert methods == {"amle-constrained", "amle-free", "modal", "majority"}
        assert {r.n for r in rows} == {4, 8}
        printed = capsys.readouterr().out
        # the plot file parses back into exactly the table that was printed
        from approvalmle.benchmark import format_benchmark_table

        assert format_benchmark_table(rows) in printed

    @staticmethod
    def noiseless_profile():
        """Two voters who each approve exactly the truth rows {b} and {c}."""
        from approvalmle.model import Profile, approval_matrix

        truths = approval_matrix([{1}, {2}], 3)
        approvals = np.repeat(truths[:, np.newaxis], 2, axis=1)
        return Profile(["a", "b", "c"], ["v1", "v2"], ["z1", "z2"], approvals), truths

    def test_run_benchmark_scores_a_truth_array(self):
        # each row is one truth set, not a set of the values 0 and 1
        from approvalmle.benchmark import run_benchmark

        profile, truths = self.noiseless_profile()
        rows = run_benchmark(profile, truths, Bounds(1, 1), [2], 1, 0, methods=["modal"])
        scores = {row.metric: row.mean for row in rows}
        assert scores["hamming"] == scores["subset"] == scores["harmonic_norm"] == 1.0

    @pytest.mark.parametrize(
        "truths, got",
        [
            (np.zeros((1, 3), dtype=bool), "bool array of shape (1, 3)"),
            (np.zeros((2, 4), dtype=bool), "bool array of shape (2, 4)"),
            ((frozenset({1}), frozenset({2})), "tuple"),
        ],
        ids=["too-few-rows", "too-many-columns", "tuple-of-sets"],
    )
    def test_run_benchmark_refuses_truths_of_another_shape_before_any_batch(
        self, monkeypatch, truths, got
    ):
        from approvalmle import benchmark

        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(benchmark, "run_method", no_batch)
        profile, _ = self.noiseless_profile()
        with pytest.raises(ValueError) as info:
            benchmark.run_benchmark(profile, truths, Bounds(1, 1), [2], 1, 0)
        assert str(info.value) == (
            f"truths must be a bool array of shape (L, m) = (2, 3), got {got}"
        )

    @pytest.mark.parametrize(
        "sizes, batches, seed, message",
        [([2.0], 1, 0, "batch size must be an integer, got 2.0"),
         ([True], 1, 0, "batch size must be an integer, got True"),
         ([2], 2.5, 0, "the number of batches must be an integer, got 2.5"),
         ([2], True, 0, "the number of batches must be an integer, got True"),
         ([2], 1, 2.0, "seed must be an integer, got 2.0"),
         ([2], 1, -1, "seed must be a non-negative integer, got -1")],
        ids=["float-size", "bool-size", "float-batches", "bool-batches", "float-seed",
             "negative-seed"],
    )
    def test_run_benchmark_refuses_counts_that_are_not_integers_before_any_batch(
        self, monkeypatch, sizes, batches, seed, message
    ):
        # a batch size of 2.0 met "seed must be integer" inside numpy
        from approvalmle import benchmark

        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(benchmark, "run_method", no_batch)
        profile, truths = self.noiseless_profile()
        with pytest.raises(ValueError) as info:
            benchmark.run_benchmark(profile, truths, Bounds(1, 1), sizes, batches, seed)
        assert str(info.value) == message

    def test_run_method_rejects_an_unknown_method(self, worked_profile, worked_bounds):
        from approvalmle.benchmark import run_method

        with pytest.raises(ValueError, match=r"^unknown method 'mode'$"):
            run_method("mode", worked_profile, worked_bounds, None)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--batch-sizes", 3, "--methods", "modal,majority,modal"],
                "methods must be distinct; repeated: ['modal']",
            ),
            (["--batch-sizes", "3,4,3"], "batch sizes must be distinct; repeated: [3]"),
        ],
        ids=["methods", "batch-sizes"],
    )
    def test_repeated_methods_or_batch_sizes_fail_before_any_batch(
        self, truth_dataset, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "bench.csv"
        code = run(
            ["benchmark", truth_dataset, "--batches", 4, "--init", "uniform", *flags, "--out", out]
        )
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

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
        for row in read_benchmark_rows(out):
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

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3, "fa97efa4c28206efaeec8a7aec5693dac24e486f6c7d72cff734d349f4b60ee1"),
            (8, "20f2b389444ac67a56169c72a9d9c7d360a81f784da468cba24d89357c0a4542"),
        ],
    )
    def test_seeded_csv_is_pinned(self, tmp_path, seed, digest):
        # football-like shape: many small AMLE runs, each scored four ways
        spec = SynthSpec.homogeneous(5, 20, 15, Bounds(1, 2), 0.7, 0.4, seed)
        data, out = tmp_path / "data.json", tmp_path / "bench.csv"
        save_dataset(data, *sample_dataset(spec))
        args = ["--lower", 1, "--upper", 2, "--max-iter", 10, "--seed", seed]
        assert run(["benchmark", data, "--batch-sizes", "5,10", "--batches", 3, *args,
                    "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_oversized_batch_exits_1(self, truth_dataset, tmp_path):
        code = run(
            [
                "benchmark", truth_dataset,
                "--batch-sizes", "40", "--batches", 2,
                "--out", tmp_path / "x.csv",
            ]
        )
        assert code == 1

    def test_batch_size_zero_exits_1_naming_the_range(self, truth_dataset, tmp_path, capsys):
        code = run(
            ["benchmark", truth_dataset, "--batch-sizes", "0,4", "--out", tmp_path / "x.csv"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: batch size 0 is not in [1, 12], the available voters\n"
        )

    def test_init_file_exits_1(self, truth_dataset, tmp_path, capsys):
        code = run(
            ["benchmark", truth_dataset, "--batch-sizes", "4", "--init", "file:x.json",
             "--out", tmp_path / "x.csv"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: benchmark re-initializes per voter batch; file-based initial "
            "parameters cannot fit every batch size\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--init", "random:abc"], "bad seed in initialization strategy 'random:abc'; "
             "expected random:<non-negative integer>"),
            (["--init", "bogus"], "unknown initialization strategy 'bogus'; expected "
             "anna-karenina, uniform, random:<seed> or file:<params.json>"),
            (["--tolerance", 0], "tolerance must be finite and positive, got 0.0"),
            (["--batches", 0], "the number of batches must be at least 1, got 0"),
            (["--batch-sizes", "1,x"], "--batch-sizes must be comma-separated integers"),
        ],
        ids=["init-seed", "init-name", "tolerance", "batches-zero", "batch-sizes"],
    )
    def test_bad_flag_exits_1(self, truth_dataset, tmp_path, flags, message, capsys):
        code = run(
            ["benchmark", truth_dataset, "--batch-sizes", "4", *flags,
             "--out", tmp_path / "x.csv"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err == f"error: {message}\n"

    def test_negative_seed_exits_1(self, truth_dataset, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["benchmark", truth_dataset, "--batch-sizes", "4", "--seed", -3, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_batch_of_one_voter_under_anna_karenina_exits_1(
        self, truth_dataset, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        code = run(["benchmark", truth_dataset, "--batch-sizes", "1", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: batch size 1 is too small for anna-karenina, which compares voters\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes, methods, init, reference_init",
        [
            ("1,4", "modal,majority", [], ["--init", "uniform"]),
            ("4", "modal", ["--init", "file:x.json"], []),
        ],
        ids=["batch-of-one", "init-file"],
    )
    def test_baselines_alone_neither_check_nor_use_the_init_strategy(
        self, truth_dataset, tmp_path, sizes, methods, init, reference_init
    ):
        flags = ["benchmark", truth_dataset, "--batch-sizes", sizes, "--batches", 3,
                 "--methods", methods]
        assert run([*flags, *init, "--out", tmp_path / "run.csv"]) == 0
        assert run([*flags, *reference_init, "--out", tmp_path / "reference.csv"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_full_set_bounds_exit_2(self, tmp_path, capsys):
        # bounds [m, m] leave no negative labels, so q is inestimable in every batch
        from approvalmle.model import Profile

        path = tmp_path / "full.json"
        save_dataset(path, Profile.build(["a"], ["v1", "v2"], [[{0}, {0}]]), [frozenset({0})])
        out = tmp_path / "x.csv"
        code = run(
            ["benchmark", path, "--lower", 1, "--upper", 1, "--batch-sizes", 2,
             "--batches", 1, "--init", "uniform", "--out", out]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("estimation error: ") and "every truth set is full" in err
        assert not out.exists()

    def test_unknown_method_exits_1_naming_the_choices(self, truth_dataset, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["benchmark", truth_dataset, "--batch-sizes", 2, "--methods", "foo",
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown methods ['foo']; choose from ['amle-constrained', 'amle-free', "
            "'modal', 'majority']\n"
        )
        assert not out.exists()

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


@pytest.mark.parametrize(
    "command, flags",
    [("aggregate", []), ("benchmark", ["--batch-sizes", "4,8", "--batches", 2])],
    ids=["aggregate", "benchmark"],
)
def test_command_builds_no_instance(tmp_path, monkeypatch, capsys, command, flags):
    # every layer computes on Profile.approvals; Instance is only a view for
    # callers outside the package
    from approvalmle.model import Bounds, Instance
    from approvalmle.synth import SynthSpec, sample_dataset

    profile, truths = sample_dataset(SynthSpec.homogeneous(4, 12, 5, Bounds(1, 2), 0.8, 0.25, 9))
    path = tmp_path / "synthetic.json"
    save_dataset(path, profile, truths)

    def refuse(self):
        raise AssertionError("an Instance was built")

    monkeypatch.setattr(Instance, "__post_init__", refuse)
    out = tmp_path / "out"
    assert run([command, path, "--lower", 1, "--upper", 2, *flags, "--out", out]) == 0
    assert out.is_file()


@pytest.mark.parametrize(
    "truth",
    [[["a"]], {"z1": 5}, {"z1": "ab"}, {"z1": {"a": 1}}],
    ids=["list", "number", "string", "object"],
)
@pytest.mark.parametrize(
    "command, flags",
    [("aggregate", []), ("benchmark", ["--batch-sizes", "2", "--batches", 1])],
    ids=["aggregate", "benchmark"],
)
def test_malformed_ground_truth_exits_1(tmp_path, capsys, command, flags, truth):
    path = tmp_path / "bad.json"
    doc = {
        "alternatives": ["a", "b"],
        "voters": ["v1", "v2"],
        "instances": [{"id": "z1", "ballots": {"v1": ["a"], "v2": ["b"]}}],
        "ground_truth": truth,
    }
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, path, *flags, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: dataset document: 'ground_truth' must map instance ids to lists of "
        "alternative id strings\n"
    )
    assert not out.exists()


def test_ground_truth_naming_an_unknown_alternative_is_refused_before_the_bounds(
    tmp_path, capsys
):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "alternatives": ["a", "b"],
        "voters": ["v1", "v2"],
        "instances": [{"id": "z1", "ballots": {"v1": ["a"], "v2": ["b"]}}],
        "ground_truth": {"z1": ["a", "nope"]},
    }))
    assert run(["aggregate", path, "--lower", 3, "--upper", 2, "--out", tmp_path / "r"]) == 1
    assert capsys.readouterr().err == (
        "error: ground_truth of instance 'z1' names unknown alternative 'nope'\n"
    )


@pytest.mark.parametrize(
    "truth, omitted",
    [({}, "['z1', 'z2', 'z3']"), ({"z3": ["a"], "z1": []}, "['z2']")],
    ids=["empty", "one-omitted"],
)
@pytest.mark.parametrize(
    "command, flags",
    [("aggregate", []), ("benchmark", ["--batch-sizes", "2", "--batches", 1])],
    ids=["aggregate", "benchmark"],
)
def test_ground_truth_that_omits_instances_exits_1(
    tmp_path, capsys, command, flags, truth, omitted
):
    # an omitted instance was once scored against an empty truth set
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "alternatives": ["a", "b"],
        "voters": ["v1", "v2"],
        "instances": [{"id": zid, "ballots": {"v1": ["a"], "v2": ["b"]}}
                      for zid in ("z1", "z2", "z3")],
        "ground_truth": truth,
    }))
    out = tmp_path / "out"
    assert run([command, path, *flags, "--lower", 1, "--upper", 1, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: ground_truth names unknown instances [] and omits instances {omitted}\n"
    )
    assert not out.exists()


def test_other_warnings_keep_pythons_own_format(monkeypatch, capsys):
    # only a UserWarning is a message for the user; a RuntimeWarning goes to
    # Python's own warning display, here pytest's recorder
    def command(args):
        warnings.warn("overflow in a fake command", RuntimeWarning)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_simulate", command)
    with pytest.warns(RuntimeWarning, match="overflow in a fake command"):
        assert run(["simulate"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, flags",
    [("aggregate", []), ("benchmark", ["--batch-sizes", "2", "--batches", 1])],
    ids=["aggregate", "benchmark"],
)
def test_library_warning_is_one_line(tmp_path, capsys, command, flags):
    # identical ballots put every voter at the same distance from the others,
    # so the distance-based initialization falls back to uniform with a warning
    path = tmp_path / "equidistant.json"
    doc = {
        "alternatives": ["a", "b"],
        "voters": ["v1", "v2", "v3"],
        "instances": [
            {"id": "z1", "ballots": {"v1": ["a"], "v2": ["a"], "v3": ["a"]}},
            {"id": "z2", "ballots": {"v1": ["b"], "v2": ["b"], "v3": ["b"]}},
        ],
        "ground_truth": {"z1": ["a"], "z2": ["b"]},
    }
    path.write_text(json.dumps(doc))
    assert run([command, path, "--lower", 1, "--upper", 1, *flags, "--out", tmp_path / "out"]) == 0
    err = capsys.readouterr().err
    assert err == "warning: all voters are equidistant; falling back to uniform initialization\n"
    assert ".py:" not in err


def test_usage_error_exits_1():
    assert run(["aggregate"]) == 1


def test_bad_flag_value_names_flag_and_value(capsys):
    assert run(["simulate", "--seed", "abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == "error: argument --seed: invalid int value: 'abc'"


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1


def _synthetic_dataset(path, edit_truths=lambda truths: truths):
    """A 4-alternative, 12-voter, 5-instance dataset with ground truth in [1, 2]."""
    from approvalmle.model import Bounds
    from approvalmle.synth import SynthSpec, sample_dataset

    profile, truths = sample_dataset(SynthSpec.homogeneous(4, 12, 5, Bounds(1, 2), 0.8, 0.25, 9))
    truths = edit_truths(truths)
    save_dataset(path, profile, truths)
    return profile, truths


@pytest.mark.parametrize(
    "args",
    [
        ["aggregate", "{dir}"],
        ["aggregate", "{data}", "--quiet", "--out", "{dir}"],
        ["evaluate", "{dir}", "{data}"],
        ["evaluate", "{data}", "{data}", "--out", "{dir}"],
        ["simulate", "--quiet", "--out", "{dir}"],
        ["benchmark", "{dir}", "--batch-sizes", "4"],
        ["benchmark", "{data}", "--batch-sizes", "4", "--init", "uniform", "--out", "{dir}"],
    ],
    ids=[
        "aggregate-input", "aggregate-out", "evaluate-input", "evaluate-out", "simulate-out",
        "benchmark-input", "benchmark-out",
    ],
)
def test_directory_path_exits_1(tmp_path, capsys, args):
    data = tmp_path / "data.json"
    _synthetic_dataset(data)
    folder = tmp_path / "folder"
    folder.mkdir()
    code = run([a.format(dir=folder, data=data) for a in args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["aggregate", "{doc}"],
        ["aggregate", "{data}", "--init", "file:{doc}"],
        ["evaluate", "{doc}", "{data}"],
    ],
    ids=["dataset", "params", "assignment"],
)
@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"p": ' + "1" * 5_000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["too-deep", "integer-over-the-digit-limit"],
)
def test_json_the_decoder_cannot_hold_is_one_line(tmp_path, capsys, args, text, reason):
    data = tmp_path / "data.json"
    _synthetic_dataset(data)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code = run([a.format(doc=doc, data=data) for a in args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {doc} is not valid JSON: {reason}")
    assert err.count("\n") == 1 and err.count("error:") == 1


def test_simulate_with_too_little_prior_mass_exits_1(tmp_path, capsys):
    # a prior that admits only the full set of 30 alternatives at t=0.1 cannot
    # be sampled; nothing is estimated, so this is an input failure
    out = tmp_path / "s.json"
    code = run(
        ["simulate", "--m", 30, "--lower", 30, "--upper", 30, "--t", 0.1, "--out", out]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: admissible prior mass") and err.count("\n") == 1
    assert not out.exists()


def test_truth_outside_bounds_warns_once_in_aggregate_and_benchmark(tmp_path, capsys):
    from approvalmle.benchmark import run_benchmark, save_benchmark_csv
    from approvalmle.model import Bounds, approval_matrix

    path = tmp_path / "wide_truth.json"
    profile, truths = _synthetic_dataset(
        path, lambda truths: (frozenset({0, 1, 2}),) + tuple(truths[1:])
    )
    expected = (
        f"warning: ground truth of instance {profile.instance_ids[0]!r} has size 3 "
        "outside [1, 2]\n"
    )
    bounds = ["--lower", 1, "--upper", 2, "--init", "uniform"]
    assert run(["aggregate", path, *bounds, "--quiet", "--out", tmp_path / "r.json"]) == 0
    assert capsys.readouterr().err == expected

    out = tmp_path / "bench.csv"
    batches = ["--batch-sizes", 4, "--batches", 2, "--seed", 3]
    assert run(["benchmark", path, *bounds, *batches, "--out", out]) == 0
    assert capsys.readouterr().err == expected
    direct = tmp_path / "direct.csv"
    truths = approval_matrix(truths, profile.num_alternatives)
    rows = run_benchmark(profile, truths, Bounds(1, 2), [4], 2, 3, init_strategy="uniform")
    save_benchmark_csv(direct, rows)
    assert out.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_library_warnings_print_under_any_interpreter_filter(tmp_path, capsys, action):
    # as `python -W error` or PYTHONWARNINGS=ignore would set them
    path = tmp_path / "wide_truth.json"
    profile, _ = _synthetic_dataset(
        path, lambda truths: (frozenset({0, 1, 2}), frozenset()) + tuple(truths[2:])
    )
    first, second = profile.instance_ids[:2]
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert run(["aggregate", path, "--lower", 1, "--upper", 2, "--init", "uniform",
                    "--quiet", "--out", tmp_path / "r.json"]) == 0
    assert capsys.readouterr().err == (
        f"warning: ground truth of instance {first!r} has size 3 outside [1, 2]\n"
        f"warning: ground truth of instance {second!r} has size 0 outside [1, 2]\n"
    )


#: aggregate and benchmark on a valid dataset, which needs no more flags
ESTIMATING_COMMANDS = pytest.mark.parametrize(
    "command, flags",
    [("aggregate", ["--quiet"]), ("benchmark", ["--batch-sizes", 4, "--init", "uniform"])],
    ids=["aggregate", "benchmark"],
)


def _refuse_to_estimate(monkeypatch, error):
    """Make the CLI's estimators raise ``error`` instead of running."""

    def estimator(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_amle", estimator)
    monkeypatch.setattr(cli, "run_benchmark", estimator)


@ESTIMATING_COMMANDS
@pytest.mark.parametrize(
    "out", ["folder", "missing/x.out", "data.json/x.out"],
    ids=["directory", "missing-parent", "file-parent"],
)
def test_unwritable_out_fails_before_estimating(tmp_path, monkeypatch, capsys, command, flags, out):
    _refuse_to_estimate(monkeypatch, AssertionError("estimated before --out was checked"))
    data = tmp_path / "data.json"
    _synthetic_dataset(data)
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path / out
    assert run([command, data, *flags, "--out", target]) == 1
    with pytest.raises(OSError) as opened:
        open(target, "w")
    assert capsys.readouterr().err == f"error: {opened.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "out", ["folder", "missing/x.out", "data.json/x.out"],
    ids=["directory", "missing-parent", "file-parent"],
)
def test_unwritable_evaluate_out_fails_before_scoring(tmp_path, capsys, out):
    data = tmp_path / "data.json"
    _synthetic_dataset(data)
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path / out
    assert run(["evaluate", data, data, "--out", target]) == 1
    with pytest.raises(OSError) as opened:
        open(target, "w")
    assert capsys.readouterr() == ("", f"error: {opened.value}\n")
    assert sorted(tmp_path.rglob("*")) == before


@ESTIMATING_COMMANDS
@pytest.mark.parametrize(
    "error, code, prefix",
    [(ValueError, 1, "error"), (DegenerateEstimate, 2, "estimation error")],
    ids=["value-error", "degenerate-estimate"],
)
def test_exit_code_follows_the_error_type(
    tmp_path, monkeypatch, capsys, command, flags, error, code, prefix
):
    _refuse_to_estimate(monkeypatch, error("raised by the estimator"))
    data = tmp_path / "data.json"
    _synthetic_dataset(data)
    out = tmp_path / "out"
    assert run([command, data, *flags, "--out", out]) == code
    assert capsys.readouterr().err == f"{prefix}: raised by the estimator\n"
    assert not out.exists()


@ESTIMATING_COMMANDS
def test_invalid_profile_is_one_line_without_warnings(tmp_path, capsys, command, flags):
    # every one of the 15 ground truths lies outside the inverted bounds, the
    # second dataset names one voter twice, which its Profile refuses as it
    # is read, and the last three declare no alternatives, voters or instances
    inverted = tmp_path / "inverted.json"
    spec = SynthSpec.homogeneous(5, 10, 15, Bounds(1, 2), 0.7, 0.4, 1)
    save_dataset(inverted, *sample_dataset(spec))
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text(json.dumps({
        "alternatives": ["a", "b"],
        "voters": ["v1", "v1"],
        "instances": [{"id": "z1", "ballots": {"v1": ["a"]}}],
        "ground_truth": {"z1": ["a"]},
    }))
    empty = {}
    for key, doc in (
        ("alternatives", {"alternatives": [], "voters": ["v1", "v2"],
                          "instances": [{"id": "z1", "ballots": {"v1": [], "v2": []}}]}),
        ("voters", {"alternatives": ["a", "b"], "voters": [],
                    "instances": [{"id": "z1", "ballots": {}}]}),
        ("instances", {"alternatives": ["a", "b"], "voters": ["v1", "v2"], "instances": []}),
    ):
        empty[key] = tmp_path / f"no-{key}.json"
        empty[key].write_text(json.dumps(doc))
    for path, bounds, message in (
        (inverted, ["--lower", 3, "--upper", 2], "invalid profile: invalid bounds (3, 2) for m=5"),
        (duplicate, [], "voter ids must be distinct; repeated: ['v1']"),
        (inverted, ["--lower", -1, "--upper", 2],
         "invalid profile: invalid bounds (-1, 2) for m=5"),
        (empty["alternatives"], ["--lower", 0, "--upper", 0],
         "invalid profile: profile declares no alternatives"),
        (empty["voters"], [], "invalid profile: profile declares no voters"),
        (empty["instances"], [], "invalid profile: profile declares no instances"),
    ):
        assert run([command, path, *flags, *bounds, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


#: Field names of the dataset, assignment and params schemas, plus ids that
#: the fixed files below use, so that generated documents get past the first
#: key lookups.
SCHEMA_NAMES = (
    "alternatives", "voters", "instances", "id", "ballots", "ground_truth",
    "estimates", "p", "q", "t", "a1", "a2", "v1", "z1",
)

json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(0, 1)
    | st.floats()
    | st.sampled_from(SCHEMA_NAMES)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_NAMES), children, max_size=5),
    max_leaves=16,
)

#: A valid long CSV (2 instances, 2 voters, 3 alternatives) for byte mutations.
LONG_CSV = b"instance_id,voter_id,alternative_id,approved\n" + b"".join(
    b"z%d,v%d,a%d,%d\n" % (z, i, j, (z + i + j) % 2)
    for z in (1, 2) for i in (1, 2) for j in (1, 2, 3)
)


def _mutate(data: bytes, edits) -> bytes:
    """``data`` with each (position, operation, byte) edit applied in turn."""
    data = bytearray(data)
    for position, operation, byte in edits:
        position %= len(data) + 1
        if operation == "insert":
            data.insert(position, byte)
        elif position < len(data):
            if operation == "replace":
                data[position] = byte
            else:
                del data[position]
    return bytes(data)


#: Byte edits that reach both CSV readers: separators, 0/1 flags and plain
#: bytes keep the array scan; quotes, NUL, bare \r and malformed rows send
#: the file to csv.reader; 0xff is not UTF-8.
csv_documents = st.lists(
    st.tuples(
        st.integers(0, len(LONG_CSV)),
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(b',\n\r"01\0a\xff'),
    ),
    max_size=3,
).map(lambda edits: _mutate(LONG_CSV, edits))

#: Valid files for the worked profile: an init params file, a report, and
#: assignments from a ground-truth file without instances and a bare map.
WORKED_ALTERNATIVES = ["a1", "a2", "a3", "a4", "a5"]
WORKED_ESTIMATES = {"z1": ["a2", "a3"], "z2": ["a2", "a3"], "z3": ["a2", "a3"], "z4": ["a3"]}
VALID_PARAMS = {"p": [0.5, 0.5, 0.5], "q": [0.44, 0.41, 0.32], "t": [0.5] * 5}
VALID_ASSIGNMENTS = (
    {"alternatives": WORKED_ALTERNATIVES, "estimates": WORKED_ESTIMATES, "params": VALID_PARAMS},
    {"alternatives": WORKED_ALTERNATIVES, "ground_truth": WORKED_ESTIMATES},
    WORKED_ESTIMATES,
)

#: Values of every JSON type, to retype a node of a valid file to.
JSON_VALUES = {
    "null": [None],
    "boolean": [True, False],
    "number": [0, 2, -1.5, 0.5],
    "string": ["", "a1"],
    "array": [[], ["a1"], [0.5]],
    "object": [{}, {"a1": ["a1"]}],
}


def _json_type(value) -> str:
    return next(name for name, values in JSON_VALUES.items() if type(value) in map(type, values))


def _paths(node, prefix=()):
    """Every path below ``node``, as tuples of object keys and array positions."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


DROP = object()


def edited_documents(*valid):
    """Every document that differs from one of ``valid`` by one path dropped
    or retyped to another JSON type."""
    edited = []
    for document in valid:
        for *parents, last in _paths(document):
            kind = _json_type(functools.reduce(operator.getitem, [*parents, last], document))
            others = [v for name, values in JSON_VALUES.items() if name != kind for v in values]
            for value in [DROP, *others]:
                copied = copy.deepcopy(document)
                node = functools.reduce(operator.getitem, parents, copied)
                if value is DROP:
                    del node[last]
                else:
                    node[last] = value
                edited.append(copied)
    return st.sampled_from(edited)


#: Where a generated document goes: the command line, with {doc} for its
#: path, the file name it is written to, and the documents to draw.
CONTRACT_ENTRY_POINTS = {
    "aggregate-dataset": (["aggregate", "{doc}", "--quiet"], "doc.json", json_documents),
    "evaluate-estimates": (["evaluate", "{doc}", "{data}"], "doc.json", json_documents),
    "aggregate-init-file": (
        ["aggregate", "{data}", "--init", "file:{doc}", "--quiet"], "doc.json", json_documents
    ),
    "aggregate-long-csv": (["aggregate", "{doc}", "--quiet"], "doc.csv", csv_documents),
    "aggregate-edited-init-file": (
        ["aggregate", "{data}", "--init", "file:{doc}", "--quiet"],
        "doc.json",
        edited_documents(VALID_PARAMS),
    ),
    "evaluate-edited-assignment": (
        ["evaluate", "{doc}", "{data}"], "doc.json", edited_documents(*VALID_ASSIGNMENTS)
    ),
}


@pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
@settings(
    max_examples=70, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_json_document_meets_the_exit_code_contract(tmp_path, worked_profile, entry, data):
    template, name, documents = CONTRACT_ENTRY_POINTS[entry]
    document = data.draw(documents, label="document")
    dataset = tmp_path / "data.json"
    save_dataset(dataset, worked_profile, [frozenset({1, 2})] * 3 + [frozenset({2})])
    doc = tmp_path / name
    if isinstance(document, bytes):
        doc.write_bytes(document)
    else:
        doc.write_text(json.dumps(document))
    args = [a.format(doc=doc, data=dataset) for a in template]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args + ["--out", str(tmp_path / "out.json")])
    lines = err.getvalue().split("\n")
    assert lines.pop() == ""
    assert code in (0, 1, 2)
    assert all(line.startswith(("error:", "estimation error:", "warning:")) for line in lines)
    # a failure is one message line, after any warnings; a success prints none
    messages = [line for line in lines if not line.startswith("warning:")]
    assert len(messages) == (code != 0)


#: Datasets whose ids no ``Profile`` holds: a repeated voter, and an
#: alternative written as a lone surrogate escape, which used to reach
#: estimation and exit 2 there.
ID_DOCUMENTS = {
    "repeated-voter": (
        {"alternatives": ["a", "b"], "voters": ["v1", "v2", "v1"],
         "instances": [{"id": "z1", "ballots": {"v1": ["a"], "v2": ["b"]}}]},
        "voter ids must be distinct; repeated: ['v1']",
    ),
    "surrogate-alternative": (
        {"alternatives": ["a", "\ud800"], "voters": ["v1", "v2"],
         "instances": [{"id": "z1", "ballots": {"v1": ["a"], "v2": ["\ud800"]}},
                       {"id": "z2", "ballots": {"v1": ["a"], "v2": []}}]},
        "alternative ids must be strings that UTF-8 can encode",
    ),
}


@pytest.mark.parametrize("document", ID_DOCUMENTS)
@pytest.mark.parametrize("command", ["aggregate", "benchmark"])
def test_a_dataset_with_ids_no_profile_holds_exits_1(tmp_path, capsys, document, command):
    doc, message = ID_DOCUMENTS[document]
    path = tmp_path / "doc.json"
    truth = {entry["id"]: ["a"] for entry in doc["instances"]}
    path.write_text(json.dumps({**doc, "ground_truth": truth}))
    flags = ["--quiet"] if command == "aggregate" else ["--batch-sizes", "1"]
    assert run([command, path, *flags, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()
