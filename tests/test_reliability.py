import math

import numpy as np
import pytest

from approvalmle import Profile, update_reliabilities
from conftest import WORKED_FIRST_TRUTHS, counts_of


class TestWorkedValues:
    def test_counting_ratios(self, worked_profile):
        counts = counts_of(worked_profile, WORKED_FIRST_TRUTHS)
        p, q = update_reliabilities(worked_profile, counts)
        np.testing.assert_allclose(p, [3 / 8, 3 / 8, 7 / 8], atol=1e-12)
        np.testing.assert_allclose(q, [2 / 12, 1 / 12, 2 / 12], atol=1e-12)


def test_perfect_voter_hits_clamp():
    truths = (frozenset({0}), frozenset({1}))
    profile = Profile.build(["a", "b"], ["v"], [[{0}], [{1}]])
    p, q = update_reliabilities(profile, counts_of(profile, truths))
    assert p[0] == 1 - 1e-4
    assert q[0] == 1e-4


def test_spammer_weight_vanishes_after_clamping():
    truths = (frozenset({0}), frozenset({1}))
    profile = Profile.build(["a", "b"], ["v"], [[{0, 1}], [{0, 1}]])
    p, q = update_reliabilities(profile, counts_of(profile, truths))
    assert p[0] == 1 - 1e-4 and q[0] == 1 - 1e-4
    weight = math.log(p[0] * (1 - q[0]) / (q[0] * (1 - p[0])))
    assert abs(weight) < 1e-6


def test_all_empty_truths_rejected():
    profile = Profile.build(["a", "b"], ["v"], [[{0}], [{1}]])
    with pytest.raises(ValueError, match="empty"):
        update_reliabilities(profile, counts_of(profile, (frozenset(), frozenset())))


def test_all_full_truths_rejected():
    profile = Profile.build(["a", "b"], ["v"], [[{0}], [{1}]])
    with pytest.raises(ValueError, match="full"):
        update_reliabilities(
            profile, counts_of(profile, (frozenset({0, 1}), frozenset({0, 1})))
        )


def test_instance_permutation_invariance(worked_profile):
    p, q = update_reliabilities(worked_profile, counts_of(worked_profile, WORKED_FIRST_TRUTHS))
    shuffled = Profile(
        worked_profile.alternative_ids,
        worked_profile.voters,
        worked_profile.instance_ids[::-1],
        worked_profile.approvals[::-1],
    )
    p2, q2 = update_reliabilities(
        shuffled, counts_of(shuffled, tuple(reversed(WORKED_FIRST_TRUTHS)))
    )
    np.testing.assert_array_equal(p, p2)
    np.testing.assert_array_equal(q, q2)


def test_voters_are_independent(worked_profile):
    p, q = update_reliabilities(worked_profile, counts_of(worked_profile, WORKED_FIRST_TRUTHS))
    # rewrite voter 0's ballots; the other voters' estimates must not move
    mutated = Profile.build(
        worked_profile.alternative_ids,
        worked_profile.voters,
        [
            [frozenset({4}) if i == 0 else ballot for i, ballot in enumerate(inst.ballots)]
            for inst in worked_profile.instances
        ],
        [inst.id for inst in worked_profile.instances],
    )
    p2, q2 = update_reliabilities(mutated, counts_of(mutated, WORKED_FIRST_TRUTHS))
    np.testing.assert_array_equal(p[1:], p2[1:])
    np.testing.assert_array_equal(q[1:], q2[1:])
    assert p[0] != p2[0]


def test_estimates_maximize_voter_likelihood(worked_profile):
    # grid-search oracle over the separable per-voter objective
    p, q = update_reliabilities(worked_profile, counts_of(worked_profile, WORKED_FIRST_TRUTHS))
    grid = np.linspace(1e-4, 1 - 1e-4, 10_000)
    m = worked_profile.num_alternatives
    for i in range(worked_profile.num_voters):
        def p_objective(x):
            total = 0.0
            for inst, truth in zip(worked_profile.instances, WORKED_FIRST_TRUTHS):
                tp = len(inst.ballots[i] & truth)
                total += tp * math.log(x) + (len(truth) - tp) * math.log(1 - x)
            return total

        def q_objective(x):
            total = 0.0
            for inst, truth in zip(worked_profile.instances, WORKED_FIRST_TRUTHS):
                fp = len(inst.ballots[i] - truth)
                negatives = m - len(truth)
                total += fp * math.log(x) + (negatives - fp) * math.log(1 - x)
            return total

        assert abs(p[i] - grid[np.argmax([p_objective(x) for x in grid])]) < 1e-3
        assert abs(q[i] - grid[np.argmax([q_objective(x) for x in grid])]) < 1e-3
