"""Log-likelihood of ballots and truth sets under the noise model.

Each voter approves a truly-winning alternative with probability p_i and a
non-winning one with probability q_i, independently across alternatives,
voters, and instances.  A candidate truth set outside the cardinality bounds
has prior probability zero; that case is represented by the distinguished
``IMPOSSIBLE`` marker rather than -inf so that comparisons stay explicit and
NaNs cannot propagate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import TIE_TOLERANCE, Bounds, ParamVector, Profile, TruthCounts
from .model import approval_matrix, require_open_unit
from .priors import _require_mass, cardinality_mass


class _ImpossibleType:
    """Singleton marker for candidate sets ruled out by the cardinality prior."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "IMPOSSIBLE"


IMPOSSIBLE = _ImpossibleType()


def _prior_term(occurrences: np.ndarray, length: int, t: np.ndarray, mass: float) -> float:
    """Log prior of ``length`` admissible truth sets whose per-alternative
    occurrence counts are ``occurrences``: they weigh ln t and ln(1 - t), and
    each set pays the log normalizing ``mass`` once."""
    return float(
        occurrences @ np.log(t) + (length - occurrences) @ np.log1p(-t) - length * math.log(mass)
    )


def _ballot_term(counts: TruthCounts, approval_totals: np.ndarray, params: ParamVector) -> float:
    """Log-probability of the ballots given the truths, from each voter's
    label counts: TP ln p + FP ln q + FN ln(1-p) + TN ln(1-q).
    ``approval_totals[i]`` is the number of approvals voter i casts."""
    positives = counts.positives
    true_pos = counts.true_pos
    false_pos = approval_totals - true_pos
    false_neg = positives - true_pos
    true_neg = counts.truths.size - positives - false_pos
    p, q = params.p, params.q
    return float(
        true_pos @ np.log(p)
        + false_pos @ np.log(q)
        + false_neg @ np.log1p(-p)
        + true_neg @ np.log1p(-q)
    )


def prior_logprob(candidate, t, bounds: Bounds):
    """Log prior probability of a candidate truth set, or IMPOSSIBLE.

    Admissible sets get sum_{j in S} ln t_j + sum_{j not in S} ln(1 - t_j)
    minus the log normalizing mass; sets whose size violates the bounds get
    the IMPOSSIBLE marker.  ``approval_matrix`` reads the members first and
    refuses any but indices in [0, len(t)): ``candidate names unknown ...``.
    """
    row = approval_matrix([candidate], len(t), ["candidate"])
    if not bounds.contains(int(row.sum())):
        return IMPOSSIBLE
    t = require_open_unit(t, "t")
    mass = cardinality_mass(t, bounds)
    return _prior_term(row.sum(0), 1, t, mass)


def instance_loglik(ballots: np.ndarray, truth, params: ParamVector, bounds: Bounds):
    """Joint log-likelihood of one instance's ``bool[n, m]`` ballots, such as
    ``profile.approvals[z]``, and its truth set, checked by ``prior_logprob``."""
    ballots = np.asarray(ballots, dtype=bool)
    params.require_fit(ballots.shape)
    prior = prior_logprob(truth, params.t, bounds)
    if prior is IMPOSSIBLE:
        return IMPOSSIBLE
    counts = TruthCounts.count(
        ballots[np.newaxis], approval_matrix([truth], params.num_alternatives)
    )
    return prior + _ballot_term(counts, ballots.sum(1), params)


def total_loglik(
    profile: Profile,
    counts: TruthCounts,
    params: ParamVector,
    bounds: Bounds,
    *,
    prior_mass: float | None = None,
) -> float:
    """Total log-likelihood over all instances of the truths that ``counts``
    (from ``TruthCounts.count``) holds.

    Instances are independent given the parameters, so the total depends on
    the ballots and truths only through per-voter and per-alternative counts.
    Bounds that do not fit m raise, and so does an inadmissible truth set,
    naming the instance.  ``prior_mass`` is ``cardinality_mass(params.t,
    bounds)`` when it is already known (``run_amle`` has it from the sweep).
    """
    bounds.require_fit(params.num_alternatives)
    sizes = counts.sizes
    outside = np.flatnonzero((sizes < bounds.lower) | (sizes > bounds.upper))
    if outside.size:
        z = outside[0]
        raise ValueError(
            f"truth set of instance {profile.instance_ids[z]!r} has size {sizes[z]} "
            f"outside bounds [{bounds.lower}, {bounds.upper}]"
        )
    if prior_mass is None:
        prior_mass = cardinality_mass(params.t, bounds)
    else:
        _require_mass(prior_mass, bounds)
    return _prior_term(
        counts.occurrences, counts.num_instances, params.t, prior_mass
    ) + _ballot_term(counts, profile.approval_totals, params)


def brute_force_truth_mle(ballots: np.ndarray, params: ParamVector, bounds: Bounds) -> list:
    """All maximum-likelihood truth sets for one instance's ``bool[n, m]``
    ballots, by enumeration.

    Enumerates every admissible subset and keeps those whose log-likelihood
    is within ``TIE_TOLERANCE`` of the maximum.  Exponential in m; serves as
    the independent oracle for the threshold-based estimator.  Returned sets
    are ordered by (size, sorted members) for determinism.
    """
    m = params.num_alternatives
    if m > 20:
        raise ValueError(f"enumeration over {m} alternatives is not supported (max 20)")
    ballots = np.asarray(ballots, dtype=bool)
    bounds.require_fit(m)
    params.require_fit(ballots.shape)

    scored = []
    for k in range(bounds.lower, bounds.upper + 1):
        for combo in itertools.combinations(range(m), k):
            candidate = frozenset(combo)
            value = instance_loglik(ballots, candidate, params, bounds)
            scored.append((candidate, value))
    best = max(value for _, value in scored)
    winners = [cand for cand, value in scored if value >= best - TIE_TOLERANCE]
    winners.sort(key=lambda s: (len(s), sorted(s)))
    return winners
