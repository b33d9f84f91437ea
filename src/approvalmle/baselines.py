"""Baseline aggregation rules that ignore voter reliabilities."""

from __future__ import annotations

from collections import Counter

from .model import Bounds, Instance, approval_matrix


def modal_rule(instance: Instance) -> frozenset:
    """The most frequently cast exact ballot.

    Ties between equally frequent ballots are broken by the lexicographically
    smallest sorted index tuple (so the empty ballot beats everything).
    """
    counts = Counter(instance.ballots)
    best = max(counts.values())
    tied = [ballot for ballot, c in counts.items() if c == best]
    return min(tied, key=lambda s: tuple(sorted(s)))


def approval_counts(instance: Instance, m: int) -> list:
    """Number of approvals per alternative."""
    return approval_matrix(instance.ballots, m).sum(0).tolist()


def majority_rule(instance: Instance, bounds: Bounds, m: int) -> frozenset:
    """Label-wise strict majority, fixed up to respect the cardinality bounds.

    Start from {a : approval count > n/2}.  If that set is empty, replace it
    by the single highest-count alternative; if it exceeds the upper bound,
    keep only the top-u by count; if it is still below the lower bound, pad
    with the highest-count excluded alternatives.  All count ties break by
    ascending alternative index.  Padding up to l generalizes the empty-set
    fix-up, which only covers l = 1.
    """
    n = len(instance.ballots)
    counts = approval_counts(instance, m)
    order = sorted(range(m), key=lambda j: (-counts[j], j))

    selected = [j for j in order if counts[j] > n / 2]
    if not selected:
        selected = order[:1]
    if len(selected) > bounds.upper:
        selected = selected[: bounds.upper]
    if len(selected) < bounds.lower:
        padding = [j for j in order if j not in selected]
        selected += padding[: bounds.lower - len(selected)]
    return frozenset(selected)
