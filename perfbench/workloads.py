"""Workload definitions, dataset synthesis and output checks for perfbench.

Each workload is one seeded synthetic dataset plus one ``approvalmle`` CLI
command run on it.  Datasets come from the package's own noise model
(``SynthSpec.homogeneous``: every voter has p=0.7, q=0.4), so the benchmark
knows the ground truth and can score every output against it.

Every command passes ``--tolerance 1e-12`` and a fixed ``--max-iter``.  With
that tolerance a run stops only at an exact fixed point, so each AMLE run does
a fixed number of iterations on every seed and the time measures the code,
not how quickly a given seed happens to converge.  At the default tolerance
``crowd`` converged after 22 to 26 iterations on seeds 1 to 5, and the AMLE
runs of five ``batch-eval`` batches took 483 to 802 iterations in total on
seeds 1 to 8.

Run as a script, this module performs one timed set-up: it imports the
package, synthesizes the dataset and writes it, then prints the seconds that
took.  ``run.py`` starts it several times in fresh interpreters so the import
is part of what is timed.
"""

from __future__ import annotations

import time

_SETUP_START = time.perf_counter()

import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

#: Relative tolerance on a decrease of the exact rule's log-likelihood trace.
LOGLIK_TOLERANCE = 1e-9

#: Every AMLE run stops only at an exact fixed point or at ``--max-iter``.
TOLERANCE = "1e-12"

#: Layers whose public entry points the tracer wraps (see tracer.py).
LAYERS = (
    "cli",
    "io",
    "model",
    "initialization",
    "amle",
    "truth_mle",
    "likelihood",
    "reliability",
    "priors",
    "baselines",
    "metrics",
    "benchmark",
)

#: Layers every workload reaches; only these have per-layer times in the
#: result line, because a time that is zero by construction says nothing.
COMMON_LAYERS = LAYERS[:9]


@dataclass(frozen=True)
class Shape:
    """Dataset size and command knobs of one workload."""

    m: int
    n: int
    instances: int
    lower: int
    upper: int
    t: float
    max_iter: int
    batch_sizes: tuple = ()
    batches: int = 0

    @property
    def cells(self) -> int:
        return self.instances * self.n * self.m


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: why it exists, its shapes and its command."""

    name: str
    why: str
    command: str  # "aggregate" or "benchmark"
    suffix: str  # dataset file format
    full: Shape
    tiny: Shape  # smoke-test shape, exercising the same code paths
    layers: tuple  # layers the command must reach

    def shape(self, smoke: bool) -> Shape:
        return self.tiny if smoke else self.full

    def argv(self, dataset: Path, out: Path, shape: Shape, seed: int) -> list:
        common = [
            "--lower", str(shape.lower),
            "--upper", str(shape.upper),
            "--tolerance", TOLERANCE,
            "--max-iter", str(shape.max_iter),
            "--out", str(out),
        ]
        if self.command == "aggregate":
            return ["aggregate", str(dataset), *common]
        return [
            "benchmark", str(dataset), *common,
            "--batch-sizes", ",".join(map(str, shape.batch_sizes)),
            "--batches", str(shape.batches),
            "--seed", str(seed),
        ]


_AGGREGATE_LAYERS = tuple(layer for layer in LAYERS if layer not in ("baselines", "benchmark"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crowd",
            why=(
                "many voters over few alternatives: the per-ballot Python loops of "
                "the truth step, likelihood, reliability update and O(n^2) init dominate"
            ),
            command="aggregate",
            suffix=".json",
            full=Shape(m=5, n=50, instances=250, lower=1, upper=2, t=0.5, max_iter=10),
            tiny=Shape(m=5, n=8, instances=12, lower=1, upper=2, t=0.5, max_iter=3),
            layers=_AGGREGATE_LAYERS,
        ),
        Workload(
            name="wide",
            why=(
                "many alternatives with wide bounds, read from long-form CSV: the "
                "cardinality DP in the likelihood and the prior sweep dominate"
            ),
            command="aggregate",
            suffix=".csv",
            full=Shape(m=60, n=8, instances=100, lower=3, upper=12, t=0.125, max_iter=10),
            tiny=Shape(m=12, n=4, instances=6, lower=2, upper=4, t=0.25, max_iter=3),
            # CSV carries no ground truth, so the CLI computes no metrics.
            layers=tuple(layer for layer in _AGGREGATE_LAYERS if layer != "metrics"),
        ),
        Workload(
            name="batch-eval",
            why=(
                "football-scale voter batches: many small AMLE runs plus baselines, "
                "so per-run fixed costs (validation, Profile.build, set-up) show"
            ),
            command="benchmark",
            suffix=".json",
            full=Shape(
                m=5, n=76, instances=15, lower=1, upper=2, t=0.5, max_iter=10,
                batch_sizes=(10, 20, 40), batches=4,
            ),
            tiny=Shape(
                m=5, n=12, instances=6, lower=1, upper=2, t=0.5, max_iter=3,
                batch_sizes=(4, 8), batches=2,
            ),
            layers=LAYERS,
        ),
    )
}


def write_dataset(workload: Workload, shape: Shape, seed: int, outdir: Path) -> Path:
    """Synthesize the workload's dataset; write it and the benchmark's truths.

    The dataset file is all the program receives.  ``truths.json`` maps each
    instance id to its generated truth set and is read by the checks only.
    """
    from approvalmle import Bounds, SynthSpec, sample_dataset
    from approvalmle import io as aio

    spec = SynthSpec.homogeneous(
        shape.m, shape.n, shape.instances, Bounds(shape.lower, shape.upper),
        p=0.7, q=0.4, seed=seed, t=shape.t,
    )
    profile, truths = sample_dataset(spec)
    dataset = outdir / (workload.name + workload.suffix)
    aio.save_dataset(dataset, profile, None if workload.suffix == ".csv" else truths)
    alt_ids = profile.alternative_ids
    truth_map = {
        inst.id: [alt_ids[j] for j in sorted(truth)]
        for inst, truth in zip(profile.instances, truths)
    }
    (outdir / "truths.json").write_text(json.dumps(truth_map), encoding="utf-8")
    return dataset


# ---------------------------------------------------------------- checks


def check_aggregate_report(data: bytes, shape: Shape, truths: dict) -> tuple:
    """Validate an ``aggregate`` report; return (problems, hamming accuracy)."""
    problems = []
    report = json.loads(data)
    alt_ids = report["alternatives"]
    estimates = report["estimates"]
    if set(estimates) != set(truths):
        problems.append("report instances differ from the dataset's")
        return problems, math.nan
    for zid, chosen in estimates.items():
        if not shape.lower <= len(chosen) <= shape.upper:
            problems.append(f"estimate of {zid} has size {len(chosen)} outside the bounds")
        if not set(chosen) <= set(alt_ids):
            problems.append(f"estimate of {zid} names unknown alternatives")
    trace = report["loglik_trace"]
    if len(trace) != report["convergence"]["iterations"]:
        problems.append("loglik_trace length differs from the iteration count")
    problems += loglik_problems(trace)
    agree = sum(
        shape.m - len(set(estimates[zid]) ^ set(truth)) for zid, truth in truths.items()
    )
    hamming = agree / (shape.m * len(truths))
    reported = report.get("metrics", {}).get("hamming")
    if reported is not None and abs(reported - hamming) > 1e-12:
        problems.append(f"reported hamming {reported} differs from recomputed {hamming}")
    return problems, hamming


def loglik_problems(trace) -> list:
    """The exact prior rule never lowers the log-likelihood between iterations."""
    return [
        f"log-likelihood fell from {before!r} to {after!r} at iteration {k + 2}"
        for k, (before, after) in enumerate(zip(trace, trace[1:]))
        if after < before - LOGLIK_TOLERANCE * abs(before)
    ]


def check_benchmark_csv(data: bytes, shape: Shape) -> tuple:
    """Validate a ``benchmark`` table; return (problems, AMLE hamming accuracy).

    The accuracy is ``amle-constrained``'s mean Hamming accuracy at the
    largest batch size.
    """
    from approvalmle.benchmark import METHODS, METRICS

    problems = []
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    if rows[0] != ["method", "n", "metric", "mean", "ci_low", "ci_high"]:
        return [f"unexpected CSV header {rows[0]}"], math.nan
    table = {}
    for method, n, metric, mean, low, high in rows[1:]:
        mean, low, high = float(mean), float(low), float(high)
        if not (0.0 <= mean <= 1.0 and low <= mean <= high):
            problems.append(f"row {method},{n},{metric} has mean {mean} in [{low}, {high}]")
        table[(method, int(n), metric)] = mean
    expected = {(m, n, x) for m in METHODS for n in shape.batch_sizes for x in METRICS}
    if set(table) != expected or len(rows) - 1 != len(expected):
        problems.append("CSV rows differ from one per method, batch size and metric")
        return problems, math.nan
    return problems, table[("amle-constrained", max(shape.batch_sizes), "hamming")]


def _timed_setup(argv) -> None:
    name, seed, smoke, src, outdir = argv
    sys.path.insert(0, src)
    workload = WORKLOADS[name]
    write_dataset(workload, workload.shape(smoke == "1"), int(seed), Path(outdir))
    print(repr(time.perf_counter() - _SETUP_START))


if __name__ == "__main__":
    _timed_setup(sys.argv[1:])
