"""Batch evaluation harness: method accuracy over random voter subsets.

For each requested batch size, draw voter subsets without replacement (seeded,
independent across batches), run each aggregation method on the restricted
profile, and score it against the dataset's ground truth.  Results are
reported as means with 0.95 normal-approximation confidence intervals
(mean ± 1.96 * sample std / sqrt(batches); a single batch gets a width-0
interval).

Batch draws are seeded with spawn keys (batch_size, batch_index), so the
result table does not depend on the order in which sizes are requested and
batches could run in parallel without changing it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .amle import AmleConfig, run_amle
from .baselines import majority_rule, modal_rule
from .initialization import anna_karenina_init, random_init, uniform_init
from .metrics import hamming_accuracy, harmonic_accuracy, subset_accuracy
from .model import Bounds, GroundTruth, Profile

METHODS = ("amle-constrained", "amle-free", "modal", "majority")
METRICS = ("hamming", "subset", "harmonic", "harmonic_norm")


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    n: int
    metric: str
    mean: float
    ci_low: float
    ci_high: float


def restrict_voters(profile: Profile, voter_indices) -> Profile:
    """Sub-profile over the given voters, keeping their original order."""
    keep = sorted(voter_indices)
    return Profile.build(
        profile.alternative_ids,
        [profile.voters[i] for i in keep],
        [[inst.ballots[i] for i in keep] for inst in profile.instances],
        [inst.id for inst in profile.instances],
    )


def parse_init(strategy: str, p0: float = 0.6, q0: float = 0.4, t0: float = 0.5):
    """Initializer ``profile -> ParamVector`` for a strategy name.

    Accepts ``anna-karenina``, ``uniform`` (rates ``p0``/``q0``) or
    ``random:<seed>``; ``t0`` is the initial inclusion prior.  Raises
    ValueError on any other name, before any profile is seen.
    """
    if strategy == "anna-karenina":
        return lambda profile: anna_karenina_init(profile, t0=t0)
    if strategy == "uniform":
        return lambda profile: uniform_init(
            profile.num_voters, profile.num_alternatives, p0, q0, t0
        )
    if strategy.startswith("random:"):
        try:
            seed = int(strategy.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad seed in initialization strategy {strategy!r}") from None
        return lambda profile: random_init(
            profile.num_voters, profile.num_alternatives, seed, t0
        )
    raise ValueError(
        f"unknown initialization strategy {strategy!r}; expected anna-karenina, "
        "uniform or random:<seed>"
    )


def run_method(
    method: str,
    profile: Profile,
    bounds: Bounds,
    init_strategy: str = "anna-karenina",
    config: AmleConfig = AmleConfig(),
) -> GroundTruth:
    """Aggregate a profile with one method and return per-instance sets."""
    m = profile.num_alternatives
    if method == "amle-constrained":
        result = run_amle(profile, bounds, parse_init(init_strategy)(profile), config)
        return result.truths
    if method == "amle-free":
        free = Bounds(0, m)
        result = run_amle(profile, free, parse_init(init_strategy)(profile), config)
        return result.truths
    if method == "modal":
        return tuple(modal_rule(inst) for inst in profile.instances)
    if method == "majority":
        return tuple(majority_rule(inst, bounds, m) for inst in profile.instances)
    raise ValueError(f"unknown method {method!r}")


def score_estimates(estimates: GroundTruth, truths: GroundTruth, m: int) -> dict:
    return {
        "hamming": hamming_accuracy(estimates, truths, m),
        "subset": subset_accuracy(estimates, truths),
        "harmonic": harmonic_accuracy(estimates, truths, m),
        "harmonic_norm": harmonic_accuracy(estimates, truths, m, normalized=True),
    }


def check_benchmark(num_voters: int, batch_sizes, methods, init_strategy: str) -> None:
    """Raise ValueError unless every batch size fits the voters and every
    method and the initialization strategy are known."""
    for size in batch_sizes:
        if not 1 <= size <= num_voters:
            raise ValueError(f"batch size {size} exceeds the {num_voters} available voters")
    unknown = [method for method in methods if method not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {list(METHODS)}")
    parse_init(init_strategy)


def run_benchmark(
    profile: Profile,
    truths: GroundTruth,
    bounds: Bounds,
    batch_sizes,
    num_batches: int,
    seed: int,
    methods=METHODS,
    init_strategy: str = "anna-karenina",
    config: AmleConfig = AmleConfig(),
) -> list:
    """Accuracy table over voter batches; see module docstring."""
    n = profile.num_voters
    check_benchmark(n, batch_sizes, methods, init_strategy)
    m = profile.num_alternatives
    rows = []
    for size in batch_sizes:
        scores = {method: {metric: [] for metric in METRICS} for method in methods}
        for batch in range(num_batches):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(size, batch))
            )
            chosen = rng.choice(n, size=size, replace=False)
            sub = restrict_voters(profile, chosen.tolist())
            for method in methods:
                estimates = run_method(method, sub, bounds, init_strategy, config)
                for metric, value in score_estimates(estimates, truths, m).items():
                    scores[method][metric].append(value)
        for method in methods:
            for metric in METRICS:
                values = np.array(scores[method][metric])
                mean = float(values.mean())
                if len(values) > 1:
                    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(len(values))
                else:
                    half = 0.0
                rows.append(
                    BenchmarkRow(method, size, metric, mean, mean - half, mean + half)
                )
    return rows


BENCHMARK_HEADER = ["method", "n", "metric", "mean", "ci_low", "ci_high"]


def save_benchmark_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCHMARK_HEADER)
        for row in rows:
            # repr round-trips floats exactly, so loading reproduces the rows
            writer.writerow(
                [row.method, row.n, row.metric, repr(row.mean), repr(row.ci_low), repr(row.ci_high)]
            )


def load_benchmark_csv(path) -> list:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != BENCHMARK_HEADER:
            raise ValueError(f"expected header {BENCHMARK_HEADER}, got {header}")
        for record in reader:
            if not record:
                continue
            method, n, metric, mean, lo, hi = record
            rows.append(
                BenchmarkRow(method, int(n), metric, float(mean), float(lo), float(hi))
            )
    return rows


def format_benchmark_table(rows) -> str:
    lines = [
        f"{'method':<18} {'n':>4} {'metric':<14} {'mean':>8} {'ci_low':>8} {'ci_high':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row.method:<18} {row.n:>4} {row.metric:<14} "
            f"{row.mean:>8.4f} {row.ci_low:>8.4f} {row.ci_high:>8.4f}"
        )
    return "\n".join(lines)
