"""Per-instance constrained maximum-likelihood estimation of the truth set.

Given noise parameters, the log-likelihood of a candidate set decomposes into
independent per-alternative margins: each alternative contributes its weighted
approval score minus a common threshold.  The maximizers are therefore top-k
sets, with k pinned down (up to ties at the threshold) by the cardinality
bounds, which reduces the exponential search to a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TIE_TOLERANCE, Bounds, Instance, ParamVector, TruthEstimate


@dataclass(frozen=True, eq=False)
class ScoreBoard:
    """Weighted approval scores for one instance.

    ``scores[j] = prior_weights[j] + sum of voter_weights[i] over approvers``
    where voter i's weight is ln(p_i(1-q_i) / (q_i(1-p_i))) and the prior
    weight of alternative j is its prior log-odds ln(t_j / (1-t_j)).  The
    ``threshold`` sum_i ln((1-q_i)/(1-p_i)) is the score level above which
    including an alternative increases the likelihood.
    """

    scores: np.ndarray
    threshold: float
    voter_weights: np.ndarray
    prior_weights: np.ndarray


@dataclass(frozen=True)
class ThresholdPartition:
    """Alternatives split by score relative to the threshold."""

    above: frozenset
    at: frozenset
    below: frozenset

    @property
    def k_above(self) -> int:
        return len(self.above)

    @property
    def k_at(self) -> int:
        return len(self.at)

    @property
    def k_below(self) -> int:
        return len(self.below)


def voter_weights(params: ParamVector) -> np.ndarray:
    """Log-odds weight of each voter: ln(p(1-q) / (q(1-p)))."""
    p, q = params.p, params.q
    return np.log(p) - np.log(q) + np.log(1.0 - q) - np.log(1.0 - p)


def weighted_scores(instance: Instance, params: ParamVector) -> ScoreBoard:
    """Compute the score board for one instance."""
    params.require_open_unit()
    if len(instance.ballots) != params.num_voters:
        raise ValueError(
            f"instance {instance.id!r} has {len(instance.ballots)} ballots for "
            f"{params.num_voters} voters"
        )
    weights = voter_weights(params)
    prior = np.log(params.t) - np.log(1.0 - params.t)
    scores = prior.copy()
    for i, ballot in enumerate(instance.ballots):
        for j in ballot:
            scores[j] += weights[i]
    threshold = float(np.sum(np.log(1.0 - params.q) - np.log(1.0 - params.p)))
    return ScoreBoard(scores, threshold, weights, prior)


def partition(
    board: ScoreBoard, tie_tolerance: float = TIE_TOLERANCE
) -> ThresholdPartition:
    """Split alternatives into above/at/below the threshold."""
    diff = board.scores - board.threshold
    at = np.abs(diff) <= tie_tolerance
    above = diff > tie_tolerance
    return ThresholdPartition(
        above=frozenset(np.flatnonzero(above).tolist()),
        at=frozenset(np.flatnonzero(at).tolist()),
        below=frozenset(np.flatnonzero(~(above | at)).tolist()),
    )


def estimate_truth(
    instance: Instance,
    params: ParamVector,
    bounds: Bounds,
    tie_tolerance: float = TIE_TOLERANCE,
) -> TruthEstimate:
    """Constrained maximum-likelihood truth set for one instance.

    Every maximizer is a top-k prefix of the score ranking that takes as much
    of the above-threshold set as the upper bound allows and dips into the
    below-threshold set only to reach the lower bound.  At-threshold
    alternatives are likelihood-neutral, so several cardinalities can tie; we
    pick the smallest admissible k (ties included only as needed to reach the
    lower bound) and resolve equal scores by ascending index, which makes runs
    reproducible.
    """
    m = params.num_alternatives
    if not bounds.valid_for(m):
        raise ValueError(f"invalid bounds ({bounds.lower}, {bounds.upper}) for m={m}")
    board = weighted_scores(instance, params)
    split = partition(board, tie_tolerance)
    k = min(bounds.upper, max(bounds.lower, split.k_above))
    # a stable sort of the negated scores breaks ties by ascending index
    chosen = frozenset(np.argsort(-board.scores, kind="stable")[:k].tolist())
    return TruthEstimate(
        chosen=chosen,
        scores=board.scores,
        threshold=board.threshold,
        partition=(split.above, split.at, split.below),
        admissible_k=k,
    )
