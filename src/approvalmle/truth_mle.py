"""Constrained maximum-likelihood estimation of the truth sets.

Given noise parameters, the log-likelihood of a candidate set decomposes into
independent per-alternative margins: each alternative contributes its weighted
approval score minus a common threshold.  The maximizers are therefore top-k
sets, with k pinned down (up to ties at the threshold) by the cardinality
bounds, which reduces the exponential search to a sort.  Instances are
independent given the parameters, so a whole profile is scored and sorted as
one ``(L, m)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    TIE_TOLERANCE,
    Bounds,
    GroundTruth,
    Instance,
    ParamVector,
    Profile,
    TruthEstimate,
    approval_matrix,
)


@dataclass(frozen=True, eq=False)
class ScoreBoard:
    """Weighted approval scores for one instance.

    ``scores[j] = prior_weights[j] + sum of voter_weights[i] over approvers``
    where voter i's weight is ln(p_i(1-q_i) / (q_i(1-p_i))) and the prior
    weight of alternative j is its prior log-odds ln(t_j / (1-t_j)).  The
    ``threshold`` sum_i ln((1-q_i)/(1-p_i)) is the score level above which
    including an alternative increases the likelihood.  For a whole profile
    ``scores`` gets a leading instance axis.
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


def _board(approvals: np.ndarray, params: ParamVector) -> ScoreBoard:
    """Score board for ``approvals`` of shape ``(..., n, m)``; the scores
    have shape ``(..., m)``, one row per instance for a whole profile.

    Voter terms are added one voter at a time in ascending index order, so
    each score is rounded exactly like a sequential per-ballot sum; a single
    contraction would reorder the additions and can flip near-ties.
    """
    params.require_open_unit()
    weights = voter_weights(params)
    prior = np.log(params.t) - np.log(1.0 - params.t)
    scores = np.broadcast_to(prior, approvals.shape[:-2] + prior.shape).copy()
    for i, weight in enumerate(weights):
        np.add(scores, weight, out=scores, where=approvals[..., i, :])
    threshold = float(np.sum(np.log(1.0 - params.q) - np.log(1.0 - params.p)))
    return ScoreBoard(scores, threshold, weights, prior)


def _top_k(board: ScoreBoard, bounds: Bounds, tie_tolerance: float) -> tuple:
    """Per row of ``board.scores``: the ranking, equal scores by ascending
    index, and the smallest admissible k (see ``estimate_truth``)."""
    above = np.count_nonzero(board.scores - board.threshold > tie_tolerance, axis=-1)
    k = np.clip(above, bounds.lower, bounds.upper)
    return np.argsort(-board.scores, axis=-1, kind="stable"), k


def weighted_scores(instance: Instance, params: ParamVector) -> ScoreBoard:
    """Compute the score board for one instance."""
    if len(instance.ballots) != params.num_voters:
        raise ValueError(
            f"instance {instance.id!r} has {len(instance.ballots)} ballots for "
            f"{params.num_voters} voters"
        )
    return _board(approval_matrix(instance.ballots, params.num_alternatives), params)


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
    data: Instance | Profile,
    params: ParamVector,
    bounds: Bounds,
    tie_tolerance: float = TIE_TOLERANCE,
) -> TruthEstimate | GroundTruth:
    """Constrained maximum-likelihood truth set(s).

    Given an ``Instance``, returns its ``TruthEstimate`` with the score
    diagnostics.  Given a ``Profile``, returns the ``GroundTruth`` tuple of
    every instance's chosen set, computed in one pass over
    ``Profile.approvals``; both go through the same scores and top-k rule.

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
    if isinstance(data, Profile):
        if (data.num_voters, data.num_alternatives) != (params.num_voters, m):
            raise ValueError("parameters sized for a different profile")
        order, k = _top_k(_board(data.approvals, params), bounds, tie_tolerance)
        return tuple(
            frozenset(ranking[:size]) for ranking, size in zip(order.tolist(), k.tolist())
        )
    board = weighted_scores(data, params)
    order, k = _top_k(board, bounds, tie_tolerance)
    split = partition(board, tie_tolerance)
    return TruthEstimate(
        chosen=frozenset(order[:k].tolist()),
        scores=board.scores,
        threshold=board.threshold,
        partition=(split.above, split.at, split.below),
        admissible_k=int(k),
    )
