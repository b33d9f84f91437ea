"""Baseline aggregation rules that ignore voter reliabilities.

Both rules take a whole ``Profile`` and return one set per instance as a
read-only ``bool[L, m]`` truth array, computed from ``Profile.approvals``.
"""

from __future__ import annotations

import numpy as np

from .model import Bounds, Profile, ranked_prefixes, read_only


def modal_rule(profile: Profile) -> np.ndarray:
    """Per instance, the most frequently cast exact ballot.

    Ties between equally frequent ballots are broken by the lexicographically
    smallest sorted index tuple (so the empty ballot beats everything).
    """
    packed = np.packbits(profile.approvals, axis=-1)
    keys = packed.view(np.dtype((np.void, packed.shape[-1])))[..., 0]
    voters = []
    for rows, instance_keys in zip(profile.approvals, keys):
        _, first, counts = np.unique(instance_keys, return_index=True, return_counts=True)
        tied = first[counts == counts.max()]
        # ascending index lists compare like the sorted index tuples
        voters.append(min(tied, key=lambda i: np.flatnonzero(rows[i]).tolist()))
    return read_only(profile.approvals[np.arange(profile.num_instances), voters])


def majority_rule(profile: Profile, bounds: Bounds) -> np.ndarray:
    """Per instance, the label-wise strict majority, fixed up to respect the
    cardinality bounds.

    Start from {a : approval count > n/2}.  If that set is empty, replace it
    by the single highest-count alternative; if it exceeds the upper bound,
    keep only the top-u by count; if it is still below the lower bound, pad
    with the highest-count excluded alternatives.  All count ties break by
    ascending alternative index.  Padding up to l generalizes the empty-set
    fix-up, which only covers l = 1.  Every step keeps a prefix of the
    (count descending, index ascending) order, so each set is that order's
    first clip(max(#majority, 1), l, u) alternatives.
    """
    counts = profile.approvals.sum(1)
    order = np.argsort(-counts, axis=-1, kind="stable")
    majority = np.count_nonzero(2 * counts > profile.num_voters, axis=-1)
    k = np.clip(np.maximum(majority, 1), bounds.lower, bounds.upper)
    return ranked_prefixes(order, k)
