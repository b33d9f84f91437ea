"""Accuracy metrics for comparing estimated truth arrays against references.

Hamming accuracy scores labels independently, exact-match (0/1) accuracy
scores whole sets, and the overlap-weighted family sits in between: an
instance scores w_c where c is the overlap with the reference set and the
weight vector is nondecreasing with w_0 = 0.  The default weights are the
diminishing harmonic sums w_c = sum_{k=1..c} 1/(m+1-k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import real_array, require_integer, require_truth_array


@dataclass(frozen=True, eq=False)
class ThieleWeights:
    """Overlap-count weights: numbers under ``real_array``, 1-D and finite,
    length m+1, w[0] = 0, nondecreasing."""

    weights: np.ndarray

    def __post_init__(self):
        arr = real_array(self.weights, "weights").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError(f"weights must be a 1-D array of finite numbers, got {arr.tolist()}")
        if len(arr) < 1 or arr[0] != 0.0:
            raise ValueError("weights must start at w[0] = 0")
        if np.any(np.diff(arr) < 0):
            raise ValueError("weights must be nondecreasing")

    @classmethod
    def harmonic(cls, m: int) -> "ThieleWeights":
        """Default weights: w_c = 1/m + 1/(m-1) + ... + 1/(m+1-c).

        >>> from approvalmle import ThieleWeights
        >>> float(ThieleWeights.harmonic(5).weights[2])
        0.45
        """
        require_integer(m, "m", 0)
        return cls(np.concatenate([[0.0], np.cumsum(1.0 / np.arange(m, 0, -1))]))


#: ``harmonic_accuracy``'s default weights, built once per m; sharing them is
#: safe because a ThieleWeights is frozen and its array read-only.
_harmonic = lru_cache(maxsize=64)(ThieleWeights.harmonic)


def _check_pair(estimates: np.ndarray, truths: np.ndarray) -> None:
    require_truth_array(truths)
    require_truth_array(estimates, *truths.shape, name="estimates")
    if not len(truths):
        raise ValueError("need at least one instance")
    if not truths.shape[1]:
        raise ValueError("need at least one alternative")


def hamming_accuracy(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Fraction of (instance, alternative) labels on which the sets agree."""
    _check_pair(estimates, truths)
    return int(np.count_nonzero(estimates == truths)) / truths.size


def subset_accuracy(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Fraction of instances whose estimate matches the reference exactly."""
    _check_pair(estimates, truths)
    return int(np.count_nonzero((estimates == truths).all(axis=1))) / len(truths)


def harmonic_accuracy(
    estimates: np.ndarray,
    truths: np.ndarray,
    weights: ThieleWeights | None = None,
    normalized: bool = False,
) -> float:
    """Mean overlap-weighted score, harmonic weights by default.

    Raw mode averages w_{|est ∩ truth|} per instance; its range depends on the
    weights and reference sizes.  Normalized mode divides each instance by its
    self-score w_{|truth|}, giving values in [0, 1] that reach 1 whenever
    every estimate covers its reference set.  An empty reference set has
    self-score 0; by convention it contributes 1 when the estimate is also
    empty and 0 otherwise.
    """
    _check_pair(estimates, truths)
    m = truths.shape[1]
    w = (_harmonic(m) if weights is None else weights).weights
    if len(w) != m + 1:
        raise ValueError(f"need m + 1 = {m + 1} weights, got {len(w)}")

    # the reduction np.count_nonzero runs on bools, without its wrapper
    scores = w[np.add.reduce(estimates & truths, axis=1, dtype=np.intp)]
    if normalized:
        self_scores = w[np.add.reduce(truths, axis=1, dtype=np.intp)]
        exact = (estimates == truths).all(axis=1).astype(float)
        scores = np.divide(scores, self_scores, out=exact, where=self_scores != 0.0)
    # np.cumsum's ufunc adds left to right; a pairwise .sum() can move the last bits
    return np.add.accumulate(scores)[-1] / len(truths)
