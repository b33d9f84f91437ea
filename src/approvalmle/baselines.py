"""Baseline aggregation rules that ignore voter reliabilities.

Both rules take a whole ``Profile`` and return one set per instance as a
read-only ``bool[L, m]`` truth array, computed from the profile's ballots.
"""

from __future__ import annotations

import numpy as np

from .model import Bounds, Profile, ranked_prefixes, read_only


def modal_rule(profile: Profile) -> np.ndarray:
    """Per instance, the most frequently cast exact ballot.

    Ties between equally frequent ballots are broken by the lexicographically
    smallest sorted index tuple (so the empty ballot beats everything).

    Each ballot is keyed by its ascending member indices padded with -1 to
    length m.  These keys compare exactly like the sorted index tuples: a
    prefix sorts first, and the empty ballot, all -1, sorts before every
    other.  One ``lexsort`` of all ballots by (instance, key) groups equal
    ballots in tie-break order; a stable ``lexsort`` of the groups by
    (instance, -count) then puts each instance's winner first.  Raises
    ValueError when there are instances but no voters.
    """
    length, n, m = profile.approvals.shape
    if length and not n:
        raise ValueError("the modal rule needs at least one voter")
    ballots = profile.approvals.reshape(length * n, m)
    members = np.sort(np.where(ballots, np.arange(m), m), axis=-1)
    members[members == m] = -1
    keys = np.column_stack((np.repeat(np.arange(length), n), members))
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(_run_starts(keys))
    counts = np.diff(np.append(starts, len(keys)))
    instance = keys[starts, 0]
    ranked = np.lexsort((-counts, instance))
    winners = ranked[_run_starts(instance[ranked, np.newaxis])]
    return read_only(ballots[order[starts[winners]]])


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted 2-D array that differ from the row before."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(-1)
    return new


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
    bounds.require_fit(profile.num_alternatives)
    counts = profile.by_voter.sum(0)
    order = np.argsort(-counts, axis=-1, kind="stable")
    majority = np.count_nonzero(2 * counts > profile.num_voters, axis=-1)
    k = np.clip(np.maximum(majority, 1), bounds.lower, bounds.upper)
    return ranked_prefixes(order, k)
