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

from .model import TIE_TOLERANCE, Bounds, GroundTruth, ParamVector, Profile
from .model import approval_matrix, require_open_unit
from .priors import cardinality_mass


class _ImpossibleType:
    """Singleton marker for candidate sets ruled out by the cardinality prior."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "IMPOSSIBLE"


IMPOSSIBLE = _ImpossibleType()


def _prior_term(truths: np.ndarray, t: np.ndarray, bounds: Bounds) -> float:
    """Log prior of admissible truth rows ``bool[L, m]``: per-alternative
    occurrence counts weigh ln t and ln(1 - t), and each row pays the log
    normalizing mass once."""
    length = truths.shape[0]
    occurrences = truths.sum(0)
    return float(
        occurrences @ np.log(t)
        + (length - occurrences) @ np.log1p(-t)
        - length * math.log(cardinality_mass(t, bounds))
    )


def _ballot_term(approvals: np.ndarray, truths: np.ndarray, params: ParamVector) -> float:
    """Log-probability of ballots ``bool[L, n, m]`` given truths ``bool[L, m]``:
    TP ln p + FP ln q + FN ln(1-p) + TN ln(1-q) from each voter's label counts."""
    positives = truths.sum()
    true_pos = np.einsum("zij,zj->i", approvals, truths.astype(float))
    false_pos = approvals.sum((0, 2)) - true_pos
    false_neg = positives - true_pos
    true_neg = truths.size - positives - false_pos
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
    the IMPOSSIBLE marker.
    """
    candidate = frozenset(candidate)
    if not bounds.contains(len(candidate)):
        return IMPOSSIBLE
    t = require_open_unit(t, "t")
    return _prior_term(approval_matrix([candidate], len(t)), t, bounds)


def instance_loglik(ballots: np.ndarray, truth, params: ParamVector, bounds: Bounds):
    """Joint log-likelihood of one instance's ``bool[n, m]`` ballots, such as
    ``profile.approvals[z]``, and its truth set."""
    prior = prior_logprob(truth, params.t, bounds)
    if prior is IMPOSSIBLE:
        return IMPOSSIBLE
    params.require_open_unit()
    truths = approval_matrix([truth], params.num_alternatives)
    return prior + _ballot_term(np.asarray(ballots, dtype=bool)[np.newaxis], truths, params)


def total_loglik(
    profile: Profile,
    truths: GroundTruth,
    params: ParamVector,
    bounds: Bounds,
) -> float:
    """Total log-likelihood over all instances.

    Instances are independent given the parameters, so the total depends on
    the ballots and truths only through per-voter and per-alternative counts.
    An inadmissible truth set raises, naming the instance.
    """
    truth_array = profile.truth_array(truths)
    sizes = truth_array.sum(1)
    outside = np.flatnonzero((sizes < bounds.lower) | (sizes > bounds.upper))
    if outside.size:
        z = outside[0]
        raise ValueError(
            f"truth set of instance {profile.instance_ids[z]!r} has size {sizes[z]} "
            f"outside bounds [{bounds.lower}, {bounds.upper}]"
        )
    params.require_open_unit()
    return _prior_term(truth_array, params.t, bounds) + _ballot_term(
        profile.approvals, truth_array, params
    )


def brute_force_truth_mle(
    ballots: np.ndarray,
    params: ParamVector,
    bounds: Bounds,
    tie_tolerance: float = TIE_TOLERANCE,
) -> list:
    """All maximum-likelihood truth sets for one instance's ``bool[n, m]``
    ballots, by enumeration.

    Enumerates every admissible subset and keeps those whose log-likelihood
    is within ``tie_tolerance`` of the maximum.  Exponential in m; serves as
    the independent oracle for the threshold-based estimator.  Returned sets
    are ordered by (size, sorted members) for determinism.
    """
    m = params.num_alternatives
    if m > 20:
        raise ValueError(f"enumeration over {m} alternatives is not supported (max 20)")
    if not bounds.valid_for(m):
        raise ValueError(f"invalid bounds ({bounds.lower}, {bounds.upper}) for m={m}")

    scored = []
    for k in range(bounds.lower, bounds.upper + 1):
        for combo in itertools.combinations(range(m), k):
            candidate = frozenset(combo)
            value = instance_loglik(ballots, candidate, params, bounds)
            scored.append((candidate, value))
    best = max(value for _, value in scored)
    winners = [cand for cand, value in scored if value >= best - tie_tolerance]
    winners.sort(key=lambda s: (len(s), sorted(s)))
    return winners
