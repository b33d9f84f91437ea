"""Cardinality-constrained prior machinery.

The prior over truth sets multiplies independent Bernoulli(t_j) inclusion
events and conditions on the set size landing in [l, u].  The normalizer is
therefore a Poisson-binomial interval probability,

    mass(t, [l, u]) = P(|S| in [l, u]),  |S| = sum_j Bernoulli(t_j),

which we compute with the standard O(m*u) counting dynamic program instead of
summing over all admissible subsets.  The conditional masses given that one
alternative is forced in (or out) reduce to the same quantity on the remaining
m-1 alternatives with shifted bounds, and they yield a closed-form coordinate
update for each t_j given occurrence counts.  A sweep over all t_j shares one
prefix row of the counting DP between its coordinates and continues it once
per coordinate that reads a mass from it (see sweep_inclusion_priors); its
last prefix row is the counting row of the new t, so the AMLE loop reads the
new normalizer from it instead of building that row again.  Every interval
mass is read in one place, ``_interval_mass``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_EPSILON_CLAMP, Bounds, TruthCounts
from .model import require_epsilon, require_open_unit


def _extend(row: list, probs) -> list:
    """Add one Bernoulli(prob) coin per ``probs`` to the count distribution
    ``row``, a list of Python floats, in place, and return ``row``.

    Each coin sets ``row[k] = row[k] * (1 - prob) + row[k - 1] * prob``, so
    column k depends only on columns k - 1 and k: a row's entries do not
    depend on where it is truncated.  One pass over the row adds two coins,
    carrying the old ``row[k - 1]`` and the first coin's entry k - 1 in
    locals; an odd count is padded with a probability-0 coin, which changes
    no entry (``x * 1.0 + y * 0.0 == x`` for finite, non-negative x and y).
    Every entry is rounded as a pass per coin, or numpy's step, rounds it.
    Rows are short (min(u, m) + 1 columns): on CPython 3.11 this pass beats
    numpy's step (three ufunc calls, about 0.8 us per coin at any width) up
    to about 17 columns, and a pass per coin by about a tenth.
    """
    top = len(row) - 1
    coins = list(probs)
    if len(coins) % 2:
        coins.append(0.0)
    pairs = iter(coins)
    if top == 0:
        for first, second in zip(pairs, pairs):
            row[0] = row[0] * (1.0 - first) * (1.0 - second)
        return row
    for first, second in zip(pairs, pairs):
        keep_first = 1.0 - first
        keep_second = 1.0 - second
        below = row[top - 1]
        high = row[top] * keep_first + below * first
        for k in range(top, 1, -1):
            older = row[k - 2]
            low = below * keep_first + older * first
            row[k] = high * keep_second + low * second
            high = low
            below = older
        low = below * keep_first
        row[1] = high * keep_second + low * second
        row[0] = low * keep_second
    return row


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
        probs = np.asarray(t, dtype=float).tolist()
        row = [1.0] + [0.0] * min(cap, len(probs))
        rows = [row[:]]
        for prob in probs:
            rows.append(_extend(row, (prob,))[:])
        return cls(np.array(rows))


def _interval_mass(coins: int, lower: int, upper: int, row=None):
    """Probability that the number of heads among ``coins`` independent coins
    lies in [lower, upper], read from their counting-DP ``row`` (truncated at
    ``upper`` or wider): exactly 0.0 for an empty interval and exactly 1.0 for
    one covering every count 0..coins, without reading ``row``; for any other
    interval, None when no ``row`` is given, so the caller builds one.

    An interval of one or two counts is read directly: one or two terms are
    rounded once in any order, so the value equals numpy's sum bit for bit.
    Wider ones take numpy's pairwise sum (np.sum's own reduction, without its
    wrapper; the builtin sum adds in another order).
    """
    upper = min(upper, coins)
    lower = max(lower, 0)
    if lower > upper:
        return 0.0
    if lower == 0 and upper == coins:
        return 1.0
    if row is None:
        return None
    if upper - lower < 2:
        return row[lower] + row[upper] if upper > lower else row[lower]
    return float(np.add.reduce(row[lower : upper + 1]))


def cardinality_mass(t, bounds: Bounds) -> float:
    """Probability that an independent-Bernoulli(t) set has size within bounds.

    Equals the exhaustive sum over admissible subsets of their product
    probabilities, but runs in O(m * upper) time.  An empty interval has
    mass exactly 0.0; a nonempty one whose mass underflows to 0 raises a
    one-line ValueError naming the bounds, the one such refusal for every
    caller (the log prior, the log-likelihood, synthetic truths).

    >>> from approvalmle import Bounds, cardinality_mass
    >>> cardinality_mass([0.5] * 4, Bounds(0, 1))
    0.3125
    >>> cardinality_mass([0.5] * 5, Bounds(1, 2))
    0.46875
    """
    t = require_open_unit(t, "inclusion probabilities")
    m = len(t)
    mass = _interval_mass(m, bounds.lower, bounds.upper)
    if mass is None:
        row = _extend([1.0] + [0.0] * min(bounds.upper, m), t.tolist())
        mass = _require_mass(_interval_mass(m, bounds.lower, bounds.upper, row), bounds)
    return mass


def _require_mass(mass: float, bounds: Bounds) -> float:
    """``mass``, the normalizer of a nonempty interval ``bounds``, unless it
    underflowed to 0."""
    if mass == 0.0:
        raise ValueError(
            f"the prior mass of set sizes in [{bounds.lower}, {bounds.upper}] underflows to 0"
        )
    return mass


#: Coordinate update rules for the inclusion priors; see sweep_inclusion_priors.
PRIOR_UPDATE_RULES = ("exact", "legacy")


def require_rule(rule: str) -> None:
    if rule not in PRIOR_UPDATE_RULES:
        raise ValueError(f"unknown prior update rule {rule!r}")


def sweep_inclusion_priors(
    counts: TruthCounts,
    bounds: Bounds,
    t,
    epsilon: float = DEFAULT_EPSILON_CLAMP,
    rule: str = "exact",
) -> np.ndarray:
    """One coordinate pass over all t_j, in ascending index order, given the
    truth sets' occurrence counts in ``counts`` (see ``TruthCounts.count``).

    With the other coordinates of ``t`` held fixed, the likelihood as a
    function of x = t_j alone is

        l(x) = -L ln(a_in * x + a_out * (1 - x)) + occ ln x + (L - occ) ln(1-x)

    where ``occ`` counts the instances whose truth contains j and a_in/a_out
    are the conditional admissibility masses: the probabilities that the other
    m - 1 alternatives contribute a count in [max(l - 1, 0), u - 1] (j forced
    in) and in [l, min(u, m - 1)] (j forced out).  The quadratic terms of the
    stationarity condition cancel, leaving the unique interior maximizer

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

    Each update sees the already-updated coordinates below it and the previous
    values above it; the pass is inherently sequential.  The pass keeps the
    counting row over the updated t[0..j-1] and extends it by one step after
    each update.  Updating t_j continues a copy of that prefix row once through
    the old t[j+1..m-1] and reads both conditional masses from the result,
    which is, bit for bit, the counting row of the other m - 1 alternatives
    built from scratch: the same steps over the same coins in the same order.
    No row is continued when both intervals are empty or cover every count,
    as with [l, u] = [0, m]: their masses do not depend on t.
    Each coordinate is clamped like ``clamp_unit`` does, on the scalar.
    The last prefix row, min(u, m) + 1 wide, is the counting row of the new
    t: ``run_amle`` reads the new normalizer off it (see ``_sweep``).
    """
    require_rule(rule)
    require_epsilon(epsilon)
    t = require_open_unit(np.array(t, dtype=float), "inclusion probabilities")
    m = len(t)
    if len(counts.occurrences) != m:
        raise ValueError(
            f"{m} inclusion priors for truth counts over {len(counts.occurrences)} alternatives"
        )
    bounds.require_fit(m)
    return _sweep(counts, bounds, t, epsilon, rule)[0]


def _sweep(
    counts: TruthCounts, bounds: Bounds, t: np.ndarray, epsilon: float, rule: str
) -> tuple:
    """``sweep_inclusion_priors`` on checked arguments: the new priors and,
    bit for bit, their ``cardinality_mass`` (but 0.0 where that raises)."""
    occurrences = counts.occurrences.tolist()
    length = counts.num_instances
    priors = t.tolist()
    m = len(priors)
    low, high = epsilon, 1.0 - epsilon
    others = m - 1
    inside = (max(bounds.lower - 1, 0), bounds.upper - 1)
    outside = (bounds.lower, min(bounds.upper, others))
    # None unless the interval is empty or full, when the mass is fixed
    a_in = _interval_mass(others, *inside)
    a_out = _interval_mass(others, *outside)
    needs_row = a_in is None or a_out is None
    prefix = [1.0] + [0.0] * min(bounds.upper, m)
    for j in range(m):
        occ = occurrences[j]
        if occ == 0:
            raw = 0.0
        elif occ == length:
            raw = 1.0
        else:
            if bounds.upper < 1:
                raise ValueError(
                    f"alternative {j} can never be included under upper bound {bounds.upper}"
                )
            if bounds.lower > others:
                raise ValueError(
                    f"alternative {j} can never be excluded under lower bound {bounds.lower}"
                )
            if needs_row:
                row = _extend(prefix[:], priors[j + 1 :])
                a_in = _interval_mass(others, *inside, row)
                a_out = _interval_mass(others, *outside, row)
                if a_in + a_out == 0.0:
                    raise ValueError(
                        f"the prior masses of alternative {j} under bounds "
                        f"[{bounds.lower}, {bounds.upper}] underflow to 0"
                    )
            if rule == "exact":
                raw = occ * a_out / ((length - occ) * a_in + occ * a_out)
            else:
                raw = occ * a_in / ((length - occ) * a_out + occ * a_in)
        priors[j] = value = min(max(raw, low), high)
        _extend(prefix, (value,))
    return np.array(priors), _interval_mass(m, bounds.lower, bounds.upper, prefix)
