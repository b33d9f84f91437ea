import numpy as np
import pytest

from approvalmle import Bounds, Profile, majority_rule, modal_rule, truth_sets
from conftest import instance_with_counts


def _modal(ballots, m):
    """The modal rule's set for one instance of index-set ballots."""
    profile = Profile.build(
        [f"a{j}" for j in range(m)], [f"v{i}" for i in range(len(ballots))], [ballots]
    )
    (chosen,) = truth_sets(modal_rule(profile))
    return chosen


def _majority(ballots, bounds):
    """The majority rule's set for one instance of ``bool[n, m]`` ballots."""
    n, m = ballots.shape
    profile = Profile([f"a{j}" for j in range(m)], [f"v{i}" for i in range(n)], ["z1"], [ballots])
    (chosen,) = truth_sets(majority_rule(profile, bounds))
    return chosen


class TestModalRule:
    def test_strict_plurality(self):
        assert _modal([{0}, {0}, {1}], 2) == frozenset({0})

    def test_worked_profile_last_instance(self, worked_profile):
        assert truth_sets(modal_rule(worked_profile))[3] == frozenset({0})

    def test_all_distinct_takes_lexicographically_smallest(self):
        assert _modal([{2}, {1, 3}, {0, 4}], 5) == frozenset({0, 4})

    def test_empty_ballot_wins_ties(self):
        assert _modal([set(), {0}], 1) == frozenset()

    def test_ties_follow_index_tuples_not_bit_patterns(self):
        # packed as bits, {1} < {0, 2} < {0, 1} on the first instance and
        # {1, 2} < {0} < {0, 1} on the second, in neither order the tuple order
        profile = Profile.build(
            ["a", "b", "c"],
            ["v1", "v2", "v3"],
            [[{0, 2}, {1}, {0, 1}], [{0, 1}, {0}, {1, 2}]],
        )
        assert truth_sets(modal_rule(profile)) == (frozenset({0, 1}), frozenset({0}))

    def test_no_voters_rejected(self):
        with pytest.raises(ValueError, match="at least one voter"):
            modal_rule(Profile.build(["a"], [], [[]]))


class TestMajorityRule:
    def test_truncates_to_upper_bound(self):
        ballots = instance_with_counts([9, 8, 7, 5, 5], 10)
        assert _majority(ballots, Bounds(1, 2)) == frozenset({0, 1})

    def test_empty_majority_falls_back_to_top_one(self):
        ballots = instance_with_counts([3, 2, 1], 10)
        assert _majority(ballots, Bounds(1, 2)) == frozenset({0})

    def test_two_majorities_within_bounds(self):
        ballots = instance_with_counts([6, 6, 1], 10)
        assert _majority(ballots, Bounds(1, 2)) == frozenset({0, 1})

    def test_pads_up_to_lower_bound(self):
        ballots = instance_with_counts([9, 4, 2, 1], 10)
        assert _majority(ballots, Bounds(3, 3)) == frozenset({0, 1, 2})

    def test_upper_zero_returns_empty(self):
        ballots = instance_with_counts([3, 1], 4)
        assert _majority(ballots, Bounds(0, 0)) == frozenset()

    def test_count_ties_break_by_index(self):
        ballots = instance_with_counts([2, 2, 2], 3)
        assert _majority(ballots, Bounds(1, 2)) == frozenset({0, 1})

    @pytest.mark.parametrize("bounds", [Bounds(2, 1), Bounds(0, 9)],
                             ids=["inverted", "upper-above-m"])
    def test_rejects_bounds_that_do_not_fit_m(self, bounds):
        ballots = instance_with_counts([3, 1, 1], 4)
        message = rf"^invalid bounds \({bounds.lower}, {bounds.upper}\) for m=3$"
        with pytest.raises(ValueError, match=message):
            _majority(ballots, bounds)

    def test_cardinality_always_within_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            lower = int(rng.integers(1, m + 1))
            upper = int(rng.integers(lower, m + 1))
            ballots = np.array([rng.random(m) < 0.5 for _ in range(n)])
            chosen = _majority(ballots, Bounds(lower, upper))
            assert lower <= len(chosen) <= upper
