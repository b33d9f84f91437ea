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

import math

import numpy as np

from .model import TIE_TOLERANCE, Bounds, ParamVector, Profile, TruthEstimate, ranked_prefixes


def voter_weights(params: ParamVector) -> np.ndarray:
    """Log-odds weight of each voter: ln(p(1-q) / (q(1-p)))."""
    p, q = params.p, params.q
    return np.log(p) - np.log(q) + np.log(1.0 - q) - np.log(1.0 - p)


#: Most ballot cells whose truth-step terms ``_board`` stacks into one array.
#: The stacked terms take 8 bytes a cell (512 KiB here); past about twice this
#: size, writing and re-reading them costs more than the per-voter calls they
#: save (1.3-3.5x slower than the loop at n, L, m = 200-1000, 100-1000, 50).
_STACK_LIMIT = 2**16


def _board(by_voter: np.ndarray, params: ParamVector) -> tuple:
    """Scores and threshold for voter-major ballots ``by_voter`` of shape
    ``(n, ..., m)``: one instance's ``bool[n, m]`` ballots, or a whole
    profile's ``Profile.by_voter``.

    ``scores[..., j]`` is alternative j's prior log-odds ln(t_j / (1-t_j))
    plus the ``voter_weights`` of its approvers; it has shape ``(..., m)``,
    one row per instance for a whole profile.  The threshold
    sum_i ln((1-q_i)/(1-p_i)) is the score level above which including an
    alternative increases the likelihood.

    Each score is the prior plus voter terms ``weight * approved`` added in
    ascending voter order, so it is rounded exactly like a sequential
    per-ballot sum; a single contraction would reorder the additions and can
    flip near-ties.  Where a voter does not approve, its term is +0.0 or
    -0.0, which leaves every score as it was (no score is ever -0.0, since
    the prior log-odds and the weights never are).

    Up to ``_STACK_LIMIT`` ballot cells, the prior row and every voter's terms
    are stacked into one ``(n+1, ..., m)`` array and summed with
    ``np.add.reduce`` along axis 0: numpy reduces a non-contiguous axis one
    row at a time, in order, so the rounding is the sequential sum's.  A
    voter's slice of one cell (one instance of one alternative) makes axis 0
    the contiguous one, where numpy sums pairwise; that case, and arrays
    above the limit, add one voter's terms at a time instead.
    """
    prior = np.log(params.t) - np.log(1.0 - params.t)
    weights = voter_weights(params)
    threshold = float(np.add.reduce(np.log(1.0 - params.q) - np.log(1.0 - params.p)))
    cells = by_voter.shape[1:]
    if by_voter.size <= _STACK_LIMIT and math.prod(cells) > 1:
        terms = np.empty((len(weights) + 1, *cells))
        terms[0] = prior
        np.multiply(by_voter, weights.reshape(-1, *[1] * len(cells)), out=terms[1:])
        return np.add.reduce(terms, axis=0), threshold
    scores = np.broadcast_to(prior, cells).copy()
    term = np.empty_like(scores)
    for weight, approved in zip(weights, by_voter):
        np.multiply(approved, weight, out=term)
        scores += term
    return scores, threshold


def _top_k(scores: np.ndarray, threshold: float, bounds: Bounds) -> tuple:
    """Per row of ``scores``: the ranking, equal scores by ascending index,
    and the smallest admissible k (see ``estimate_truth``)."""
    # what np.count_nonzero, np.clip and np.argsort run, without their wrappers
    above = np.add.reduce(scores - threshold > TIE_TOLERANCE, axis=-1, dtype=np.intp)
    k = np.minimum(np.maximum(above, bounds.lower), bounds.upper)
    return (-scores).argsort(axis=-1, kind="stable"), k


def estimate_truth(profile: Profile, params: ParamVector, bounds: Bounds) -> np.ndarray:
    """Constrained maximum-likelihood truth set of every instance.

    Returns the read-only ``bool[L, m]`` truth array, computed in one pass
    over the profile's voter-major ballots (``Profile.by_voter``).

    Every maximizer is a top-k prefix of the score ranking that takes as much
    of the above-threshold set as the upper bound allows and dips into the
    below-threshold set only to reach the lower bound.  At-threshold
    alternatives are likelihood-neutral, so several cardinalities can tie; we
    pick the smallest admissible k (ties included only as needed to reach the
    lower bound) and resolve equal scores by ascending index, which makes runs
    reproducible.
    """
    bounds.require_fit(params.num_alternatives)
    params.require_fit(profile.approvals.shape[1:])
    return ranked_prefixes(*_top_k(*_board(profile.by_voter, params), bounds))


def explain_truth(ballots: np.ndarray, params: ParamVector, bounds: Bounds) -> TruthEstimate:
    """One instance's truth set with its score diagnostics.

    ``ballots`` is that instance's ``bool[n, m]`` approvals, such as
    ``profile.approvals[z]``; the chosen set is the one ``estimate_truth``
    picks for it.  The partition splits the alternatives into those scoring
    above, within ``TIE_TOLERANCE`` of, and below the threshold.
    """
    ballots = np.asarray(ballots, dtype=bool)
    bounds.require_fit(params.num_alternatives)
    params.require_fit(ballots.shape)
    scores, threshold = _board(ballots, params)
    order, k = _top_k(scores, threshold, bounds)
    diff = scores - threshold
    above = diff > TIE_TOLERANCE
    at = np.abs(diff) <= TIE_TOLERANCE
    return TruthEstimate(
        chosen=frozenset(order[:k].tolist()),
        scores=scores,
        threshold=threshold,
        partition=tuple(
            frozenset(np.flatnonzero(side).tolist()) for side in (above, at, ~(above | at))
        ),
        admissible_k=int(k),
    )
