"""Synthetic data generation from the noise model.

A ``SynthSpec`` draws from one ``ParamVector``: voter i approves a winner
with probability p_i and a non-winner with probability q_i, and alternative j
enters the truth with prior t_j.  The spec's m and n are the lengths of t and
p, and ``ParamVector`` is the one check of the three rate vectors.

Truth sets are drawn from the cardinality-constrained prior by rejection:
sample independent Bernoulli(t_j) inclusions and retry until the size lands in
[l, u].  The acceptance probability is exactly the admissible mass, which is
large in typical regimes; pathological priors are refused.  Ballots then flip
each (voter, label) coin with probability p_i or q_i.

Seeding scheme: the single configured seed feeds numpy SeedSequences with
spawn keys (0, z) for instance z's truth draw and (1, z) for its ballots, so
truths and ballots come from disjoint deterministic streams and per-instance
draws could be parallelized without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Bounds, ParamVector, Profile, read_only, require_integer,
                    require_truth_array, truth_sets)
from .priors import cardinality_mass

#: Refuse rejection sampling when the admissible prior mass is below this.
MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Generator configuration: instance count, bounds, the rates drawn from, seed."""

    num_instances: int
    bounds: Bounds
    params: ParamVector
    seed: int

    def __post_init__(self):
        require_integer(self.num_instances, "num_instances")
        if self.num_instances < 0:
            raise ValueError(f"num_instances must be non-negative, got {self.num_instances}")
        require_integer(self.seed, "seed", 0)
        _require_sizes(self.m, self.n)
        self.bounds.require_fit(self.m)

    @property
    def m(self) -> int:
        return self.params.num_alternatives

    @property
    def n(self) -> int:
        return self.params.num_voters

    @classmethod
    def homogeneous(
        cls,
        m: int,
        n: int,
        num_instances: int,
        bounds: Bounds,
        p: float,
        q: float,
        seed: int,
        t: float = 0.5,
    ) -> "SynthSpec":
        """All voters share (p, q) and all alternatives share prior t."""
        _require_sizes(m, n)  # before np.full, which has its own message for a negative size
        params = ParamVector(np.full(n, p), np.full(n, q), np.full(m, t))
        return cls(num_instances, bounds, params, seed)


def _require_sizes(m: int, n: int) -> None:
    """Raise ValueError, naming the size, unless a spec has at least one
    alternative and one voter."""
    for name, size in (("m", m), ("n", n)):
        require_integer(size, name, 1)


def sample_truths(spec: SynthSpec) -> np.ndarray:
    """Draw the read-only ``bool[L, m]`` truth array from the constrained prior."""
    acceptance = cardinality_mass(spec.params.t, spec.bounds)
    if acceptance < MIN_ACCEPTANCE:
        raise ValueError(
            f"admissible prior mass {acceptance:.2e} is too small for rejection "
            "sampling; the prior needs direct conditional sampling"
        )
    truths = np.empty((spec.num_instances, spec.m), dtype=bool)
    for z in range(spec.num_instances):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0, z)))
        while True:
            truths[z] = rng.random(spec.m) < spec.params.t
            if spec.bounds.contains(int(truths[z].sum())):
                break
    return read_only(truths)


def sample_profile(spec: SynthSpec, truths: np.ndarray) -> Profile:
    """Draw approval ballots given the ``bool[L, m]`` truths, of the spec's L and m."""
    require_truth_array(truths, spec.num_instances, spec.m)
    approvals = np.empty((spec.num_instances, spec.n, spec.m), dtype=bool)
    for z, member in enumerate(truths):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1, z)))
        probs = np.where(member[None, :], spec.params.p[:, None], spec.params.q[:, None])
        approvals[z] = rng.random((spec.n, spec.m)) < probs
    return Profile(
        [f"a{j + 1}" for j in range(spec.m)],
        [f"v{i + 1}" for i in range(spec.n)],
        [f"z{z + 1}" for z in range(spec.num_instances)],
        approvals,
    )


def sample_dataset(spec: SynthSpec):
    """Convenience: draw truths, one frozenset per instance, and a matching profile."""
    truths = sample_truths(spec)
    # sets, because perfbench/workloads.py sorts each set's members for truths.json
    return sample_profile(spec, truths), truth_sets(truths)
