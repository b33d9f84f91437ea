import math

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    ParamVector,
    brute_force_truth_mle,
    estimate_truth,
    explain_truth,
    truth_sets,
    voter_weights,
)
from approvalmle.model import approval_matrix
from conftest import WORKED_FIRST_TRUTHS, random_small_instance
from reference_seed import score_ranking


def _with_all_approver(ballots):
    """The ballots plus one more voter who approves every alternative."""
    return np.vstack([ballots, np.ones((1, ballots.shape[1]), dtype=bool)])


class TestWeightedScores:
    def test_counted_instance_scores(self, counted_instance, counted_params):
        board = explain_truth(counted_instance, counted_params, Bounds(1, 4))
        w = math.log(0.7 * 0.6 / (0.4 * 0.3))  # = ln 3.5
        prior_d = math.log(0.6 / 0.4)
        expected = np.array([9 * w, 8 * w, 7 * w, 5 * w + prior_d, 5 * w])
        np.testing.assert_allclose(board.scores, expected, atol=1e-9)
        assert board.threshold == pytest.approx(10 * math.log(2), abs=1e-9)
        np.testing.assert_allclose(voter_weights(counted_params), w, atol=1e-12)

    def test_uninformative_voter_has_zero_weight(self):
        ballots = approval_matrix([{0}], 2)
        params = ParamVector([0.3], [0.3], [0.5, 0.5])
        board = explain_truth(ballots, params, Bounds(0, 2))
        assert voter_weights(params)[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(board.scores, 0.0, atol=1e-12)

    def test_even_prior_reduces_to_weighted_count(self):
        ballots = approval_matrix([{0}, {0, 1}], 3)
        params = ParamVector([0.8, 0.6], [0.2, 0.4], [0.5, 0.5, 0.5])
        board = explain_truth(ballots, params, Bounds(0, 3))
        # with no voters a score is its alternative's prior log-odds alone
        no_voters = ParamVector([], [], params.t)
        prior_weights = explain_truth(approval_matrix([], 3), no_voters, Bounds(0, 3)).scores
        np.testing.assert_allclose(prior_weights, 0.0, atol=1e-12)
        weights = voter_weights(params)
        assert board.scores[0] == pytest.approx(weights[0] + weights[1])
        assert board.scores[2] == 0.0


class TestPartition:
    def test_counted_instance_partition(self, counted_instance, counted_params):
        above, at, below = explain_truth(counted_instance, counted_params, Bounds(1, 4)).partition
        assert above == frozenset({0, 1, 2})
        assert at == frozenset()
        assert below == frozenset({3, 4})
        assert (len(above), len(at), len(below)) == (3, 0, 2)

    def test_all_below(self):
        ballots = approval_matrix([frozenset()] * 3, 2)
        params = ParamVector([0.8] * 3, [0.2] * 3, [0.5, 0.5])
        above, _, below = explain_truth(ballots, params, Bounds(0, 2)).partition
        assert above == frozenset()
        assert len(below) == 2

    def test_exact_threshold_members_are_tied(self):
        # one voter with (p, q) = (0.6, 0.4): threshold = ln(0.6/0.4); an
        # unapproved alternative with prior 0.6 scores ln(0.6/0.4) exactly
        ballots = approval_matrix([frozenset()], 3)
        params = ParamVector([0.6], [0.4], [0.6, 0.6, 0.2])
        _, at, below = explain_truth(ballots, params, Bounds(0, 3)).partition
        assert at == frozenset({0, 1})
        assert below == frozenset({2})


class TestEstimateTruth:
    def test_counted_instance_choice(self, counted_instance, counted_params):
        estimate = explain_truth(counted_instance, counted_params, Bounds(1, 4))
        assert estimate.chosen == frozenset({0, 1, 2})
        assert estimate.admissible_k == 3

    def test_worked_profile_first_pass(self, worked_profile, worked_init, worked_bounds):
        outcome = tuple(
            explain_truth(ballots, worked_init, worked_bounds).chosen
            for ballots in worked_profile.approvals
        )
        assert outcome == WORKED_FIRST_TRUTHS
        assert truth_sets(estimate_truth(worked_profile, worked_init, worked_bounds)) == outcome

    def test_unconstrained_selects_above_threshold_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ballots, params, _ = random_small_instance(rng)
            m = params.num_alternatives
            estimate = explain_truth(ballots, params, Bounds(0, m))
            above, at, below = estimate.partition
            assert estimate.chosen == above

    def test_chosen_is_ranking_prefix(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ballots, params, bounds = random_small_instance(rng)
            estimate = explain_truth(ballots, params, bounds)
            ranking = score_ranking(estimate.scores)
            assert estimate.chosen == frozenset(ranking[: estimate.admissible_k])

    def test_partition_constraints_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ballots, params, bounds = random_small_instance(rng)
            estimate = explain_truth(ballots, params, bounds)
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
            ballots, params, bounds = random_small_instance(rng)
            extended = _with_all_approver(ballots)
            extended_params = ParamVector(
                np.append(params.p, 0.4), np.append(params.q, 0.4), params.t
            )
            base = explain_truth(ballots, params, bounds)
            shifted = explain_truth(extended, extended_params, bounds)
            assert shifted.chosen == base.chosen
            np.testing.assert_allclose(shifted.scores, base.scores, atol=1e-12)

    def test_informative_all_approving_voter_preserves_ranking(self):
        # an all-approver with p > q adds the same margin to every
        # alternative: the score order is unchanged (the selected cardinality
        # can legitimately move within the bounds), and with a pinned
        # cardinality the chosen set cannot change
        rng = np.random.default_rng(22)
        for _ in range(50):
            ballots, params, bounds = random_small_instance(rng)
            extended = _with_all_approver(ballots)
            extended_params = ParamVector(
                np.append(params.p, 0.7), np.append(params.q, 0.3), params.t
            )
            base = explain_truth(ballots, params, bounds)
            shifted = explain_truth(extended, extended_params, bounds)
            assert score_ranking(shifted.scores) == score_ranking(base.scores)
            k = min(bounds.upper, max(bounds.lower, 1))
            pinned = Bounds(k, k)
            assert (
                explain_truth(extended, extended_params, pinned).chosen
                == explain_truth(ballots, params, pinned).chosen
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            ballots, params, bounds = random_small_instance(rng)
            estimate = explain_truth(ballots, params, bounds)
            assert estimate.chosen in brute_force_truth_mle(ballots, params, bounds)

    def test_empty_bounds_choose_empty_set(self):
        params = ParamVector([0.7], [0.2], [0.5, 0.5])
        estimate = explain_truth(approval_matrix([{0}], 2), params, Bounds(0, 0))
        assert estimate.chosen == frozenset()

    def test_profile_with_other_shape_rejected(self, worked_profile, worked_bounds):
        params = ParamVector([0.7] * 2, [0.2] * 2, [0.5] * 5)
        with pytest.raises(ValueError, match="different profile"):
            estimate_truth(worked_profile, params, worked_bounds)

    def test_ballots_of_other_shape_rejected(self, counted_params):
        for shape in ((9, 5), (10, 4), (1, 10, 5)):
            with pytest.raises(ValueError, match="different profile"):
                explain_truth(np.zeros(shape, dtype=bool), counted_params, Bounds(1, 4))

    def test_invalid_bounds_rejected(self):
        params = ParamVector([0.7], [0.2], [0.5, 0.5])
        with pytest.raises(ValueError):
            explain_truth(approval_matrix([{0}], 2), params, Bounds(2, 1))
