"""Closed-form estimation of per-voter noise rates from (estimated) truths.

Pooled across instances, the likelihood separates by voter, and the maximizer
is a counting ratio: p̂_i is the voter's true-positive rate over all positive
labels, q̂_i the false-positive rate over all negative labels.
"""

from __future__ import annotations

import numpy as np

from .model import DEFAULT_EPSILON_CLAMP, GroundTruth, Profile, clamp_unit


def update_reliabilities(
    profile: Profile,
    truths: GroundTruth,
    epsilon: float = DEFAULT_EPSILON_CLAMP,
):
    """Estimate (p, q) for every voter given per-instance truth sets.

    Returns clamped arrays; degenerate counts (a perfect or spamming voter)
    land on the clamp boundaries rather than 0 or 1, keeping log-odds weights
    finite.  Anti-experts (p̂ < q̂) are returned as-is.

    Raises ValueError when every truth set is empty (no positive labels, p
    undefined) or every truth set is full (no negative labels, q undefined).
    """
    truth_array = profile.truth_array(truths)
    total_positive = int(truth_array.sum())
    total_negative = truth_array.size - total_positive
    if total_positive == 0:
        raise ValueError(
            "every truth set is empty: true-positive rate p is undefined"
        )
    if total_negative == 0:
        raise ValueError(
            "every truth set is full: false-positive rate q is undefined"
        )

    # einsum over two bool operands would return a logical OR, not a count
    true_pos = np.einsum("zij,zj->i", profile.approvals, truth_array.astype(float))
    approvals = profile.approvals.sum((0, 2))

    p_hat = clamp_unit(true_pos / total_positive, epsilon)
    q_hat = clamp_unit((approvals - true_pos) / total_negative, epsilon)
    return p_hat, q_hat
