import itertools
import math

import numpy as np
import pytest

from approvalmle import (
    IMPOSSIBLE,
    Bounds,
    ParamVector,
    Profile,
    brute_force_truth_mle,
    cardinality_mass,
    explain_truth,
    prior_logprob,
    total_loglik,
)
from approvalmle.likelihood import instance_loglik
from approvalmle.model import approval_matrix
from conftest import WORKED_FIRST_TRUTHS, counts_of, random_small_instance


def ballot_loglik(ballot, truth, p, q, m):
    """Log-probability of one ballot given a truth set: a one-voter instance's
    log-likelihood minus its prior term."""
    params = ParamVector([p], [q], [0.5] * m)
    bounds = Bounds(0, m)
    ballots = approval_matrix([ballot], m)
    return instance_loglik(ballots, truth, params, bounds) - prior_logprob(truth, params.t, bounds)


class TestBallotLoglik:
    def test_counts_from_label_enumeration(self):
        ballot = frozenset({0, 3})
        truth = frozenset({1, 3})
        p, q, m = 0.5, 0.44, 5
        # oracle: walk the five labels and pick each one's factor directly
        expected = 0.0
        for j in range(m):
            if j in ballot and j in truth:
                expected += math.log(p)
            elif j in ballot:
                expected += math.log(q)
            elif j in truth:
                expected += math.log(1 - p)
            else:
                expected += math.log(1 - q)
        value = ballot_loglik(ballot, truth, p, q, m)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(
            math.log(0.5) + math.log(0.44) + math.log(0.5) + 2 * math.log(0.56),
            abs=1e-12,
        )

    def test_all_true_positives(self):
        everything = frozenset(range(4))
        assert ballot_loglik(everything, everything, 0.7, 0.2, 4) == pytest.approx(
            4 * math.log(0.7)
        )

    def test_all_true_negatives(self):
        assert ballot_loglik(frozenset(), frozenset(), 0.7, 0.4, 3) == pytest.approx(
            3 * math.log(0.6)
        )

    def test_rejects_boundary_rates(self, worked_profile):
        with pytest.raises(ValueError, match="strictly"):
            ballot_loglik(frozenset(), frozenset(), 1.0, 0.4, 3)
        with pytest.raises(ValueError, match="strictly"):
            ballot_loglik(frozenset(), frozenset(), 0.5, 0.0, 3)
        with pytest.raises(ValueError, match="strictly"):
            params = ParamVector([0.5, 0.5, 1.0], [0.4] * 3, [0.5] * 5)
            total_loglik(
                worked_profile,
                counts_of(worked_profile, WORKED_FIRST_TRUTHS),
                params,
                Bounds(1, 2),
            )


class TestPriorLogprob:
    def test_unconstrained_fair_coins(self):
        value = prior_logprob(frozenset({0, 2}), [0.5] * 5, Bounds(0, 5))
        assert value == pytest.approx(math.log(1 / 32), abs=1e-12)

    def test_size_outside_bounds_is_impossible(self):
        assert prior_logprob(frozenset({0, 1, 2}), [0.5] * 5, Bounds(1, 2)) is IMPOSSIBLE

    def test_instance_loglik_of_inadmissible_truth_is_impossible(self):
        ballots = np.array([[True, False, True], [False, False, True]])
        params = ParamVector([0.7, 0.6], [0.3, 0.2], [0.5] * 3)
        assert instance_loglik(ballots, {0, 1, 2}, params, Bounds(1, 2)) is IMPOSSIBLE

    def test_constrained_fair_coins(self):
        value = prior_logprob(frozenset({4}), [0.5] * 5, Bounds(1, 2))
        assert value == pytest.approx(math.log(1 / 15), abs=1e-12)

    def test_normalizes_over_admissible_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            lower = int(rng.integers(0, m + 1))
            upper = int(rng.integers(lower, m + 1))
            t = np.clip(rng.random(m), 0.05, 0.95)
            total = 0.0
            for k in range(lower, upper + 1):
                for combo in itertools.combinations(range(m), k):
                    total += math.exp(
                        prior_logprob(frozenset(combo), t, Bounds(lower, upper))
                    )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_mass_is_one_line_naming_the_bounds(self):
        # P(150 <= |S| <= 200) under 400 coins of bias 1e-3 is below the
        # smallest double: log(0) raised "math domain error"
        t, bounds = np.full(400, 1e-3), Bounds(150, 200)
        message = r"^the prior mass of set sizes in \[150, 200\] underflows to 0$"
        with pytest.raises(ValueError, match=message):
            prior_logprob(frozenset(range(160)), t, bounds)
        profile = Profile.build([f"a{j}" for j in range(400)], ["v"], [[set(range(160))]])
        params = ParamVector([0.6], [0.3], t)
        with pytest.raises(ValueError, match=message):
            total_loglik(profile, counts_of(profile, (frozenset(range(160)),)), params, bounds)


class TestTotalLoglik:
    def test_refuses_bounds_that_do_not_fit_m_without_instances(self):
        # no truth set is checked, and the empty interval's exact 0.0 mass
        # used to reach log(0): "math domain error"
        profile = Profile.build(["a", "b"], ["v"], [])
        params = ParamVector([0.6], [0.3], [0.5, 0.5])
        counts = counts_of(profile, ())
        for prior_mass in (None, 1.0):
            with pytest.raises(ValueError, match=r"^invalid bounds \(3, 4\) for m=2$"):
                total_loglik(profile, counts, params, Bounds(3, 4), prior_mass=prior_mass)

    def test_given_prior_mass_stands_in_for_the_counting_row(self, worked_profile, worked_init):
        counts = counts_of(worked_profile, WORKED_FIRST_TRUTHS)
        bounds = Bounds(1, 2)
        mass = cardinality_mass(worked_init.t, bounds)
        built = total_loglik(worked_profile, counts, worked_init, bounds)
        assert total_loglik(worked_profile, counts, worked_init, bounds, prior_mass=mass) == built
        message = r"^the prior mass of set sizes in \[1, 2\] underflows to 0$"
        with pytest.raises(ValueError, match=message):
            total_loglik(worked_profile, counts, worked_init, bounds, prior_mass=0.0)

    def test_single_instance_composition(self):
        params = ParamVector([0.6], [0.3], [0.5, 0.5])
        profile_like = _single_instance_profile()
        truth = (frozenset({0}),)
        # one true positive and one true negative, and 1 of the 2 admissible
        # singletons under fair coins
        expected = math.log(0.6) + math.log(0.7) + math.log(0.5)
        assert total_loglik(
            profile_like, counts_of(profile_like, truth), params, Bounds(1, 1)
        ) == pytest.approx(
            expected, abs=1e-12
        )

    def test_worked_profile_matches_product_oracle(self, worked_profile, worked_init):
        bounds = Bounds(1, 2)
        value = total_loglik(
            worked_profile, counts_of(worked_profile, WORKED_FIRST_TRUTHS), worked_init, bounds
        )
        # oracle: multiply raw probabilities instance by instance, then log
        product = 1.0
        mass = cardinality_mass(worked_init.t, bounds)
        for instance, truth in zip(worked_profile.instances, WORKED_FIRST_TRUTHS):
            prob = 1.0
            for j in range(5):
                prob *= worked_init.t[j] if j in truth else 1 - worked_init.t[j]
            prob /= mass
            for i, ballot in enumerate(instance.ballots):
                for j in range(5):
                    approved = j in ballot
                    winning = j in truth
                    if approved and winning:
                        prob *= worked_init.p[i]
                    elif approved:
                        prob *= worked_init.q[i]
                    elif winning:
                        prob *= 1 - worked_init.p[i]
                    else:
                        prob *= 1 - worked_init.q[i]
            product *= prob
        assert value == pytest.approx(math.log(product), abs=1e-9)

    def test_instance_order_is_irrelevant(self, worked_profile, worked_init):
        from approvalmle import Profile

        bounds = Bounds(1, 2)
        forward = total_loglik(
            worked_profile, counts_of(worked_profile, WORKED_FIRST_TRUTHS), worked_init, bounds
        )
        reversed_profile = Profile(
            worked_profile.alternative_ids,
            worked_profile.voters,
            worked_profile.instance_ids[::-1],
            worked_profile.approvals[::-1],
        )
        backward = total_loglik(
            reversed_profile,
            counts_of(reversed_profile, tuple(reversed(WORKED_FIRST_TRUTHS))),
            worked_init,
            bounds,
        )
        assert backward == pytest.approx(forward, abs=1e-9)

    def test_inadmissible_truth_names_instance(self, worked_profile, worked_init):
        truths = (frozenset(),) + WORKED_FIRST_TRUTHS[1:]
        with pytest.raises(ValueError, match="z1"):
            total_loglik(
                worked_profile, counts_of(worked_profile, truths), worked_init, Bounds(1, 2)
            )


class TestBruteForce:
    def test_counted_instance_unique_maximizer(self, counted_instance, counted_params):
        winners = brute_force_truth_mle(counted_instance, counted_params, Bounds(1, 4))
        assert winners == [frozenset({0, 1, 2})]

    def test_unanimous_single_approval(self):
        ballots = approval_matrix([frozenset({2})] * 4, 4)
        params = ParamVector([0.7] * 4, [0.2] * 4, [0.5] * 4)
        winners = brute_force_truth_mle(ballots, params, Bounds(1, 1))
        assert winners == [frozenset({2})]

    def test_rejects_parameters_for_another_profile(self):
        params = ParamVector([0.7], [0.3], [0.5] * 3)
        ballots = np.zeros((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="parameters sized for a different profile"):
            brute_force_truth_mle(ballots, params, Bounds(1, 2))
        with pytest.raises(ValueError, match="parameters sized for a different profile"):
            instance_loglik(ballots, frozenset({0}), params, Bounds(1, 2))

    def test_refuses_large_m(self):
        params = ParamVector([0.7], [0.2], [0.5] * 21)
        with pytest.raises(ValueError):
            brute_force_truth_mle(np.zeros((1, 21), dtype=bool), params, Bounds(0, 21))

    def test_contains_threshold_estimator_output(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            ballots, params, bounds = random_small_instance(rng)
            winners = brute_force_truth_mle(ballots, params, bounds)
            estimate = explain_truth(ballots, params, bounds)
            assert estimate.chosen in winners

    def test_tied_maximizers_share_likelihood(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ballots, params, bounds = random_small_instance(rng)
            winners = brute_force_truth_mle(ballots, params, bounds)
            values = [
                instance_loglik(ballots, s, params, bounds) for s in winners
            ]
            assert max(values) - min(values) <= 1e-9


def _single_instance_profile():
    from approvalmle import Profile

    return Profile.build(["a", "b"], ["v"], [[{0}]])
