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
from .initialization import DEFAULT_P0, DEFAULT_Q0, DEFAULT_T0
from .initialization import anna_karenina_init, random_init, uniform_init
from .io import load_params
from .metrics import hamming_accuracy, harmonic_accuracy, subset_accuracy
from .model import (Bounds, ParamVector, Profile, require_distinct, require_integer,
                    require_truth_array)

METHODS = ("amle-constrained", "amle-free", "modal", "majority")
METRICS = ("hamming", "subset", "harmonic", "harmonic_norm")
#: The initialization strategy unless one is named; see parse_init.
DEFAULT_INIT = "anna-karenina"


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
    return Profile(
        profile.alternative_ids,
        [profile.voters[i] for i in keep],
        profile.instance_ids,
        profile.approvals[:, keep],
    )


def parse_init(
    strategy: str, p0: float = DEFAULT_P0, q0: float = DEFAULT_Q0, t0: float = DEFAULT_T0
):
    """Initializer ``profile -> ParamVector`` for a strategy name.

    Accepts ``anna-karenina``, ``uniform`` (rates ``p0``/``q0``),
    ``random:<seed>`` or ``file:<params.json>`` (read here, by
    ``io.load_params``); ``t0`` is the initial inclusion prior.  Raises
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
            seed = -1
        if seed < 0:
            raise ValueError(
                f"bad seed in initialization strategy {strategy!r}; expected "
                "random:<non-negative integer>"
            )
        return lambda profile: random_init(
            profile.num_voters, profile.num_alternatives, seed, t0
        )
    if strategy.startswith("file:"):
        params = load_params(strategy.split(":", 1)[1])
        return lambda profile: params
    raise ValueError(
        f"unknown initialization strategy {strategy!r}; expected anna-karenina, "
        "uniform, random:<seed> or file:<params.json>"
    )


def run_method(
    method: str,
    profile: Profile,
    bounds: Bounds,
    init: ParamVector | None,
    config: AmleConfig = AmleConfig(),
) -> np.ndarray:
    """Aggregate a profile with one method and return its truth array; the
    AMLE methods start from the parameters ``init``, the baselines ignore it."""
    if method == "amle-constrained":
        return run_amle(profile, bounds, init, config).truth_array
    if method == "amle-free":
        free = Bounds(0, profile.num_alternatives)
        return run_amle(profile, free, init, config).truth_array
    if method == "modal":
        return modal_rule(profile)
    if method == "majority":
        return majority_rule(profile, bounds)
    raise ValueError(f"unknown method {method!r}")


def score_estimates(estimates: np.ndarray, truths: np.ndarray) -> dict:
    return {
        "hamming": hamming_accuracy(estimates, truths),
        "subset": subset_accuracy(estimates, truths),
        "harmonic": harmonic_accuracy(estimates, truths),
        "harmonic_norm": harmonic_accuracy(estimates, truths, normalized=True),
    }


def run_benchmark(
    profile: Profile,
    truths: np.ndarray,
    bounds: Bounds,
    batch_sizes,
    num_batches: int,
    seed: int,
    methods=METHODS,
    init_strategy: str = DEFAULT_INIT,
    config: AmleConfig = AmleConfig(),
) -> list:
    """Accuracy table over voter batches against the truth array ``truths``; see module docstring.

    Raises ValueError before any batch runs unless ``truths`` is a bool
    array of the profile's shape (L, m), the batch sizes, batch count and
    seed are integers (sizes fit the voters, count >= 1, seed >= 0), every
    method is known and no batch size or method is repeated.  When an AMLE
    method is requested, the initialization strategy must also be a known
    one that can initialize any voter batch (so not ``file:``, and not
    ``anna-karenina`` on a batch of one voter); the baselines read no initial
    parameters, so without an AMLE method the strategy is neither checked nor used.
    """
    require_truth_array(truths, profile.num_instances, profile.num_alternatives)
    n = profile.num_voters
    # both AMLE methods start from the same parameters, computed once per batch
    needs_init = any(method.startswith("amle") for method in methods)
    if needs_init and init_strategy.startswith("file:"):
        raise ValueError(
            "benchmark re-initializes per voter batch; file-based initial "
            "parameters cannot fit every batch size"
        )
    for size in batch_sizes:
        require_integer(size, "batch size")
        if not 1 <= size <= n:
            raise ValueError(f"batch size {size} is not in [1, {n}], the available voters")
    if needs_init and init_strategy == "anna-karenina" and 1 in batch_sizes:
        raise ValueError("batch size 1 is too small for anna-karenina, which compares voters")
    require_integer(num_batches, "the number of batches", 1)
    unknown = [method for method in methods if method not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {list(METHODS)}")
    require_integer(seed, "seed", 0)
    require_distinct(batch_sizes, "batch sizes")
    require_distinct(methods, "methods")
    make_init = parse_init(init_strategy) if needs_init else None
    rows = []
    for size in batch_sizes:
        scores = {method: {metric: [] for metric in METRICS} for method in methods}
        for batch in range(num_batches):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(size, batch))
            )
            chosen = rng.choice(n, size=size, replace=False)
            sub = restrict_voters(profile, chosen.tolist())
            init = make_init(sub) if needs_init else None
            for method in methods:
                estimates = run_method(method, sub, bounds, init, config)
                for metric, value in score_estimates(estimates, truths).items():
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
