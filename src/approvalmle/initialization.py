"""Initial values for the voter noise rates (p, q).

The distance-based strategy assigns higher starting weight to voters whose
ballots are closer, on average, to everyone else's: reliable voters tend to
answer alike, while unreliable ones each err in their own way.  Uniform and
seeded-random strategies serve as baselines.

Every strategy returns a full parameter vector; the inclusion priors t are
not informed by any of them and are filled with a constant (``DEFAULT_T0``
unless overridden).
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import ParamVector, Profile, require_integer, require_open_unit

#: Starting values unless overridden: the uniform strategy's rates and every
#: strategy's inclusion prior.
DEFAULT_P0, DEFAULT_Q0, DEFAULT_T0 = 0.6, 0.4, 0.5


def _pooled_distance_sums(by_voter: np.ndarray) -> np.ndarray:
    """Per voter, the sum of Jaccard distances to every other voter, each
    voter's ballots ``by_voter[i]`` pooled across instances into one set of
    (instance, alternative) pairs.  Intersections come from the Gram matrix,
    exactly."""
    pooled = by_voter.reshape(len(by_voter), -1).astype(float)
    shared = pooled @ pooled.T
    sizes = np.diag(shared)
    union = sizes[:, np.newaxis] + sizes[np.newaxis, :] - shared
    pairwise = np.divide(union - shared, union, out=np.zeros_like(union), where=union > 0)
    # a left-to-right running sum, so each total is rounded exactly like a
    # sequential sum over the other voters in index order
    return np.add.accumulate(pairwise, axis=1)[:, -1]


def uniform_init(
    n: int, m: int, p0: float = DEFAULT_P0, q0: float = DEFAULT_Q0, t0: float = DEFAULT_T0
) -> ParamVector:
    """Give every voter the same starting rates (defaults ``DEFAULT_P0``, ``DEFAULT_Q0``)."""
    require_integer(n, "n", 0)
    require_integer(m, "m", 0)
    for name, value in (("p0", p0), ("q0", q0), ("t0", t0)):
        require_open_unit(value, name)
    return ParamVector(np.full(n, p0), np.full(n, q0), np.full(m, t0))


def random_init(n: int, m: int, seed: int, t0: float = DEFAULT_T0) -> ParamVector:
    """Draw p_i uniformly from (0.5, 1) and q_i from (0, 0.5).

    Uses a PCG64 generator seeded with ``seed``, a non-negative integer
    under ``require_integer``; the same seed always reproduces the same
    vector.  Lower interval endpoints are excluded by nudging them up one ulp,
    so every initial voter weight is strictly positive.
    """
    require_integer(n, "n", 0)
    require_integer(m, "m", 0)
    require_open_unit(t0, "t0")
    require_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    p = rng.uniform(np.nextafter(0.5, 1.0), 1.0, size=n)
    q = rng.uniform(np.nextafter(0.0, 1.0), 0.5, size=n)
    return ParamVector(p, q, np.full(m, t0))


def anna_karenina_init(profile: Profile, t0: float = DEFAULT_T0) -> ParamVector:
    """Distance-based initialization of the voter rates.

    For each voter, sum the Jaccard distances between her pooled ballots and
    every other voter's.  Interpolate weights between w_min = 1/(n+1) for the
    most distant voter and w_max = n/(n+1) for the closest (so the closest
    voter initially counts n times the most distant one), linearly in inverse
    distance:

        w_i = (w_max - w_min) * (1/d_i - 1/d_max) / (1/d_min - 1/d_max) + w_min

    Then fix p_i = 1/2 and set q_i so that the voter's initial log-odds weight
    ln(p(1-q) / (q(1-p))) equals w_i exactly, i.e. q_i = (1 - tanh(w_i/2)) / 2.

    Falls back to the uniform strategy (with a warning) when all pairwise
    distance sums coincide, which also covers the two-voter case where the
    two sums are equal by symmetry.
    """
    require_open_unit(t0, "t0")
    n = profile.num_voters
    if n < 2:
        raise ValueError("distance-based initialization needs at least 2 voters")
    distances = _pooled_distance_sums(profile.by_voter)
    d_max = distances.max()
    d_min = distances.min()
    if d_min == d_max:
        warnings.warn(
            "all voters are equidistant; falling back to uniform initialization",
            stacklevel=2,
        )
        return uniform_init(n, profile.num_alternatives, t0=t0)

    w_max = n / (n + 1.0)
    w_min = 1.0 / (n + 1.0)
    spread = 1.0 / d_min - 1.0 / d_max
    weights = (w_max - w_min) * (1.0 / distances - 1.0 / d_max) / spread + w_min
    p = np.full(n, 0.5)
    q = (1.0 - np.tanh(weights / 2.0)) / 2.0
    return ParamVector(p, q, np.full(profile.num_alternatives, t0))
