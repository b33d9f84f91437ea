"""Closed-form estimation of per-voter noise rates from (estimated) truths.

Pooled across instances, the likelihood separates by voter, and the maximizer
is a counting ratio: p̂_i is the voter's true-positive rate over all positive
labels, q̂_i the false-positive rate over all negative labels.
"""

from __future__ import annotations

from .model import DEFAULT_EPSILON_CLAMP, Profile, TruthCounts, clamp_unit


class DegenerateEstimate(ValueError):
    """The estimated truths hold no positive label or no negative label, so
    the closed-form rate p or q is undefined: the one degenerate estimate."""


def update_reliabilities(
    profile: Profile,
    counts: TruthCounts,
    epsilon: float = DEFAULT_EPSILON_CLAMP,
):
    """Estimate (p, q) for every voter given the per-instance truth sets that
    ``counts`` (from ``TruthCounts.count``) holds.

    Returns clamped arrays; degenerate counts (a perfect or spamming voter)
    land on the clamp boundaries rather than 0 or 1, keeping log-odds weights
    finite.  Anti-experts (p̂ < q̂) are returned as-is.

    Raises DegenerateEstimate when every truth set is empty (no positive
    labels, p undefined) or every truth set is full (no negative labels, q
    undefined).
    """
    total_positive = counts.positives
    total_negative = counts.truths.size - total_positive
    if total_positive == 0:
        raise DegenerateEstimate(
            "every truth set is empty: true-positive rate p is undefined"
        )
    if total_negative == 0:
        raise DegenerateEstimate(
            "every truth set is full: false-positive rate q is undefined"
        )

    p_hat = clamp_unit(counts.true_pos / total_positive, epsilon)
    q_hat = clamp_unit((profile.approval_totals - counts.true_pos) / total_negative, epsilon)
    return p_hat, q_hat
