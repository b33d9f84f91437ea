"""File formats and the command-line interface, end to end.

Simulates a dataset, writes it in both supported encodings, aggregates it via
the CLI entry point, and scores the estimates against the embedded ground
truth.  Everything runs in a temporary directory that is removed at the end;
the equivalent shell commands are shown alongside.
"""

import json
import tempfile
from pathlib import Path

from approvalmle.cli import main
from approvalmle.io import load_dataset, save_dataset

with tempfile.TemporaryDirectory(prefix="approvalmle_demo_") as tmp:
    workdir = Path(tmp)
    dataset = workdir / "dataset.json"
    report = workdir / "report.json"
    bench = workdir / "benchmark.csv"

    print(f"working directory: {workdir}\n")

    # --- simulate -----------------------------------------------------------
    # shell: approvalmle simulate --n 20 --instances 12 --seed 7 --out dataset.json
    code = main(
        ["simulate", "--n", "20", "--instances", "12", "--seed", "7", "--out", str(dataset)]
    )
    assert code == 0

    profile, truths = load_dataset(dataset)
    print(f"simulated {profile.num_instances} instances for {profile.num_voters} voters")

    # the same ballots in the long CSV form, for spreadsheets
    save_dataset(workdir / "dataset.csv", profile)
    print(f"long-form CSV rows: {sum(1 for _ in open(workdir / 'dataset.csv'))}")

    # --- aggregate -----------------------------------------------------------
    # shell: approvalmle aggregate dataset.json --lower 1 --upper 2 --out report.json
    code = main(
        [
            "aggregate", str(dataset),
            "--lower", "1", "--upper", "2",
            "--init", "anna-karenina",
            "--out", str(report),
            "--quiet",
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    print(f"\nreport: converged={doc['convergence']['converged']} "
          f"in {doc['convergence']['iterations']} iterations")
    print(f"metrics vs embedded truth: {doc['metrics']}")

    # --- evaluate ------------------------------------------------------------
    # shell: approvalmle evaluate report.json dataset.json
    print("\nevaluate command output:")
    code = main(["evaluate", str(report), str(dataset)])
    assert code == 0

    # --- benchmark -----------------------------------------------------------
    # shell: approvalmle benchmark dataset.json --batch-sizes 5,10 --batches 5 ...
    print("\nbenchmark over voter batches:")
    code = main(
        [
            "benchmark", str(dataset),
            "--batch-sizes", "5,10", "--batches", "5",
            "--lower", "1", "--upper", "2",
            "--init", "uniform",
            "--out", str(bench),
        ]
    )
    assert code == 0
