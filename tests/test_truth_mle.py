import math

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    Instance,
    ParamVector,
    brute_force_truth_mle,
    estimate_truth,
    partition,
    weighted_scores,
)
from conftest import WORKED_FIRST_TRUTHS, random_small_instance
from reference_seed import score_ranking


class TestWeightedScores:
    def test_counted_instance_scores(self, counted_instance, counted_params):
        board = weighted_scores(counted_instance, counted_params)
        w = math.log(0.7 * 0.6 / (0.4 * 0.3))  # = ln 3.5
        prior_d = math.log(0.6 / 0.4)
        expected = np.array([9 * w, 8 * w, 7 * w, 5 * w + prior_d, 5 * w])
        np.testing.assert_allclose(board.scores, expected, atol=1e-9)
        assert board.threshold == pytest.approx(10 * math.log(2), abs=1e-9)
        np.testing.assert_allclose(board.voter_weights, w, atol=1e-12)

    def test_uninformative_voter_has_zero_weight(self):
        instance = Instance("z", [frozenset({0})])
        params = ParamVector([0.3], [0.3], [0.5, 0.5])
        board = weighted_scores(instance, params)
        assert board.voter_weights[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(board.scores, 0.0, atol=1e-12)

    def test_even_prior_reduces_to_weighted_count(self):
        instance = Instance("z", [frozenset({0}), frozenset({0, 1})])
        params = ParamVector([0.8, 0.6], [0.2, 0.4], [0.5, 0.5, 0.5])
        board = weighted_scores(instance, params)
        np.testing.assert_allclose(board.prior_weights, 0.0, atol=1e-12)
        assert board.scores[0] == pytest.approx(
            board.voter_weights[0] + board.voter_weights[1]
        )
        assert board.scores[2] == 0.0


class TestPartition:
    def test_counted_instance_partition(self, counted_instance, counted_params):
        board = weighted_scores(counted_instance, counted_params)
        split = partition(board)
        assert split.above == frozenset({0, 1, 2})
        assert split.at == frozenset()
        assert split.below == frozenset({3, 4})
        assert (split.k_above, split.k_at, split.k_below) == (3, 0, 2)

    def test_all_below(self):
        instance = Instance("z", [frozenset()] * 3)
        params = ParamVector([0.8] * 3, [0.2] * 3, [0.5, 0.5])
        split = partition(weighted_scores(instance, params))
        assert split.above == frozenset()
        assert split.k_below == 2

    def test_exact_threshold_members_are_tied(self):
        # one voter with (p, q) = (0.6, 0.4): threshold = ln(0.6/0.4); an
        # unapproved alternative with prior 0.6 scores ln(0.6/0.4) exactly
        instance = Instance("z", [frozenset()])
        params = ParamVector([0.6], [0.4], [0.6, 0.6, 0.2])
        split = partition(weighted_scores(instance, params))
        assert split.at == frozenset({0, 1})
        assert split.below == frozenset({2})


class TestEstimateTruth:
    def test_counted_instance_choice(self, counted_instance, counted_params):
        estimate = estimate_truth(counted_instance, counted_params, Bounds(1, 4))
        assert estimate.chosen == frozenset({0, 1, 2})
        assert estimate.admissible_k == 3

    def test_worked_profile_first_pass(self, worked_profile, worked_init, worked_bounds):
        outcome = tuple(
            estimate_truth(inst, worked_init, worked_bounds).chosen
            for inst in worked_profile.instances
        )
        assert outcome == WORKED_FIRST_TRUTHS

    def test_unconstrained_selects_above_threshold_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            instance, params, _ = random_small_instance(rng)
            m = params.num_alternatives
            estimate = estimate_truth(instance, params, Bounds(0, m))
            above, at, below = estimate.partition
            assert estimate.chosen == above

    def test_chosen_is_ranking_prefix(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            instance, params, bounds = random_small_instance(rng)
            estimate = estimate_truth(instance, params, bounds)
            ranking = score_ranking(estimate.scores)
            assert estimate.chosen == frozenset(ranking[: estimate.admissible_k])

    def test_partition_constraints_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            instance, params, bounds = random_small_instance(rng)
            estimate = estimate_truth(instance, params, bounds)
            above, at, below = estimate.partition
            assert len(estimate.chosen & above) == min(bounds.upper, len(above))
            assert len(estimate.chosen & below) == max(
                0, bounds.lower - len(at) - len(above)
            )
            assert bounds.contains(len(estimate.chosen))

    def test_uninformative_all_approving_voter_changes_nothing(self):
        # a spammer with p = q carries zero weight and zero threshold shift
        rng = np.random.default_rng(21)
        for _ in range(50):
            instance, params, bounds = random_small_instance(rng)
            m = params.num_alternatives
            extended = Instance(
                instance.id, instance.ballots + (frozenset(range(m)),)
            )
            extended_params = ParamVector(
                np.append(params.p, 0.4), np.append(params.q, 0.4), params.t
            )
            base = estimate_truth(instance, params, bounds)
            shifted = estimate_truth(extended, extended_params, bounds)
            assert shifted.chosen == base.chosen
            np.testing.assert_allclose(shifted.scores, base.scores, atol=1e-12)

    def test_informative_all_approving_voter_preserves_ranking(self):
        # an all-approver with p > q adds the same margin to every
        # alternative: the score order is unchanged (the selected cardinality
        # can legitimately move within the bounds), and with a pinned
        # cardinality the chosen set cannot change
        rng = np.random.default_rng(22)
        for _ in range(50):
            instance, params, bounds = random_small_instance(rng)
            m = params.num_alternatives
            extended = Instance(
                instance.id, instance.ballots + (frozenset(range(m)),)
            )
            extended_params = ParamVector(
                np.append(params.p, 0.7), np.append(params.q, 0.3), params.t
            )
            base = estimate_truth(instance, params, bounds)
            shifted = estimate_truth(extended, extended_params, bounds)
            assert score_ranking(shifted.scores) == score_ranking(base.scores)
            k = min(bounds.upper, max(bounds.lower, 1))
            pinned = Bounds(k, k)
            assert (
                estimate_truth(extended, extended_params, pinned).chosen
                == estimate_truth(instance, params, pinned).chosen
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            instance, params, bounds = random_small_instance(rng)
            estimate = estimate_truth(instance, params, bounds)
            assert estimate.chosen in brute_force_truth_mle(instance, params, bounds)

    def test_empty_bounds_choose_empty_set(self):
        instance = Instance("z", [frozenset({0})])
        params = ParamVector([0.7], [0.2], [0.5, 0.5])
        estimate = estimate_truth(instance, params, Bounds(0, 0))
        assert estimate.chosen == frozenset()

    def test_profile_with_other_shape_rejected(self, worked_profile, worked_bounds):
        params = ParamVector([0.7] * 2, [0.2] * 2, [0.5] * 5)
        with pytest.raises(ValueError, match="different profile"):
            estimate_truth(worked_profile, params, worked_bounds)

    def test_invalid_bounds_rejected(self):
        instance = Instance("z", [frozenset({0})])
        params = ParamVector([0.7], [0.2], [0.5, 0.5])
        with pytest.raises(ValueError):
            estimate_truth(instance, params, Bounds(2, 1))
