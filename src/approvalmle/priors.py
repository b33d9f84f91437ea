"""Cardinality-constrained prior machinery.

The prior over truth sets multiplies independent Bernoulli(t_j) inclusion
events and conditions on the set size landing in [l, u].  The normalizer is
therefore a Poisson-binomial interval probability,

    mass(t, [l, u]) = P(|S| in [l, u]),  |S| = sum_j Bernoulli(t_j),

which we compute with the standard O(m*u) counting dynamic program instead of
summing over all admissible subsets.  The conditional masses given that one
alternative is forced in (or out) reduce to the same quantity on the remaining
m-1 alternatives with shifted bounds, and they yield a closed-form coordinate
update for each t_j given occurrence counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_EPSILON_CLAMP, Bounds, GroundTruth, clamp_unit, require_open_unit


@dataclass(frozen=True, eq=False)
class CardinalityDP:
    """Counting table for the number of included alternatives.

    ``table[j, k]`` is the probability that exactly ``k`` of the first ``j``
    alternatives are included under independent Bernoulli(t) draws.  Columns
    are truncated at ``cap``; probability mass for counts above the cap is
    dropped (never folded into the last column), so every stored entry is an
    exact point probability.
    """

    table: np.ndarray

    @classmethod
    def build(cls, t: np.ndarray, cap: int) -> "CardinalityDP":
        t = np.asarray(t, dtype=float)
        m = len(t)
        cap = min(cap, m)
        table = np.zeros((m + 1, cap + 1))
        table[0, 0] = 1.0
        for j, prob in enumerate(t, start=1):
            row = table[j - 1]
            table[j, 1:] = row[1:] * (1.0 - prob) + row[:-1] * prob
            table[j, 0] = row[0] * (1.0 - prob)
        return cls(table)

    def interval(self, lower: int, upper: int) -> float:
        """Total mass of counts in [lower, upper] among all alternatives."""
        return float(self.table[-1, lower : upper + 1].sum())


def _interval_mass(t: np.ndarray, lower: int, upper: int) -> float:
    m = len(t)
    upper = min(upper, m)
    lower = max(lower, 0)
    if lower > upper:
        return 0.0
    if lower == 0 and upper == m:
        return 1.0
    return CardinalityDP.build(t, upper).interval(lower, upper)


def cardinality_mass(t, bounds: Bounds) -> float:
    """Probability that an independent-Bernoulli(t) set has size within bounds.

    Equals the exhaustive sum over admissible subsets of their product
    probabilities, but runs in O(m * upper) time.

    >>> from approvalmle import Bounds, cardinality_mass
    >>> cardinality_mass([0.5] * 4, Bounds(0, 1))
    0.3125
    >>> cardinality_mass([0.5] * 5, Bounds(1, 2))
    0.46875
    """
    t = require_open_unit(t, "inclusion probabilities")
    return _interval_mass(t, bounds.lower, bounds.upper)


def mass_given_included(j: int, t, bounds: Bounds) -> float:
    """Admissibility probability conditioned on alternative j being included.

    With j forced in, the other alternatives must contribute a count in
    [max(l - 1, 0), u - 1].
    """
    t = require_open_unit(t, "inclusion probabilities")
    if bounds.upper < 1:
        raise ValueError(
            f"alternative {j} can never be included under upper bound {bounds.upper}"
        )
    rest = np.delete(t, j)
    return _interval_mass(rest, max(bounds.lower - 1, 0), bounds.upper - 1)


def mass_given_excluded(j: int, t, bounds: Bounds) -> float:
    """Admissibility probability conditioned on alternative j being excluded.

    With j forced out, the other m - 1 alternatives must contribute a count in
    [l, min(u, m - 1)].
    """
    t = require_open_unit(t, "inclusion probabilities")
    if bounds.lower > len(t) - 1:
        raise ValueError(
            f"alternative {j} can never be excluded under lower bound {bounds.lower}"
        )
    rest = np.delete(t, j)
    return _interval_mass(rest, bounds.lower, min(bounds.upper, len(t) - 1))


#: Coordinate update rules for the inclusion priors; see update_inclusion_prior.
PRIOR_UPDATE_RULES = ("exact", "legacy")


def update_inclusion_prior(
    j: int,
    truths: GroundTruth,
    bounds: Bounds,
    t,
    epsilon: float = DEFAULT_EPSILON_CLAMP,
    rule: str = "exact",
) -> float:
    """Closed-form coordinate update of t_j given truth sets, clamped.

    With the other coordinates of ``t`` held fixed, the likelihood as a
    function of x = t_j alone is

        l(x) = -L ln(a_in * x + a_out * (1 - x)) + occ ln x + (L - occ) ln(1-x)

    where ``occ`` counts the instances whose truth contains j and a_in/a_out
    are the conditional admissibility masses above.  The quadratic terms of
    the stationarity condition cancel, leaving the unique interior maximizer

        x* = occ * a_out / ((L - occ) * a_in + occ * a_out),

    which is what the default ``exact`` rule returns.  Conditioning on
    admissibility makes inclusion over-represented whenever a_in > a_out, so
    the exact rule pulls the pre-constraint estimate below the raw occurrence
    rate occ/L (and symmetrically above it when a_in < a_out); with
    unconstrained bounds both masses are 1 and x* = occ/L exactly.

    The ``legacy`` rule swaps the two masses:

        x = occ * a_in / ((L - occ) * a_out + occ * a_in),

    i.e. it multiplies the empirical occurrence odds by the admissibility
    ratio a_in/a_out instead of dividing.  It is not a maximizer (the total
    likelihood can decrease under it), but widely circulated AMLE results
    were produced with this variant, so it is kept for reproducing them.

    The occ = 0 and occ = L boundary cases reduce to 0 and 1 under either
    rule without touching the conditional masses (whose preconditions may not
    hold there), and are clamped like any result.
    """
    if rule not in PRIOR_UPDATE_RULES:
        raise ValueError(f"unknown prior update rule {rule!r}")
    t = require_open_unit(t, "inclusion probabilities")
    length = len(truths)
    occ = sum(1 for truth in truths if j in truth)
    if occ == 0:
        raw = 0.0
    elif occ == length:
        raw = 1.0
    else:
        a_in = mass_given_included(j, t, bounds)
        a_out = mass_given_excluded(j, t, bounds)
        if rule == "exact":
            raw = occ * a_out / ((length - occ) * a_in + occ * a_out)
        else:
            raw = occ * a_in / ((length - occ) * a_out + occ * a_in)
    return float(clamp_unit(raw, epsilon))


def sweep_inclusion_priors(
    truths: GroundTruth,
    bounds: Bounds,
    t,
    epsilon: float = DEFAULT_EPSILON_CLAMP,
    rule: str = "exact",
) -> np.ndarray:
    """One coordinate pass over all t_j, in ascending index order.

    Each update sees the already-updated coordinates below it and the previous
    values above it; the pass is inherently sequential.
    """
    current = np.array(t, dtype=float)
    for j in range(len(current)):
        current[j] = update_inclusion_prior(j, truths, bounds, current, epsilon, rule)
    return current
