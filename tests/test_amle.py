import numpy as np
import pytest

from approvalmle import (
    AmleConfig,
    Bounds,
    ParamVector,
    Profile,
    estimate_truth,
    run_amle,
    sample_dataset,
    subset_accuracy,
    sweep_inclusion_priors,
    uniform_init,
    update_reliabilities,
)
from approvalmle.baselines import majority_rule
from approvalmle.synth import SynthSpec
from conftest import WORKED_FINAL_TRUTHS, WORKED_FIRST_TRUTHS


def random_run(seed, n=8, m=4, num_instances=6, bounds=Bounds(1, 2)):
    spec = SynthSpec.homogeneous(m, n, num_instances, bounds, 0.75, 0.3, seed)
    profile, truths = sample_dataset(spec)
    result = run_amle(profile, bounds, uniform_init(n, m))
    return profile, truths, result, bounds


class TestWorkedProfile:
    def test_first_iteration(self, worked_profile, worked_bounds, worked_init):
        result = run_amle(worked_profile, worked_bounds, worked_init)
        first = result.trace[0]
        assert first.truths == WORKED_FIRST_TRUTHS
        np.testing.assert_allclose(first.params.p, [3 / 8, 3 / 8, 7 / 8], atol=1e-12)
        np.testing.assert_allclose(
            first.params.q, [2 / 12, 1 / 12, 2 / 12], atol=1e-12
        )

    def test_legacy_rule_reaches_reference_fixed_point(
        self, worked_profile, worked_bounds, worked_init
    ):
        result = run_amle(
            worked_profile,
            worked_bounds,
            worked_init,
            AmleConfig(prior_update="legacy"),
        )
        assert result.converged
        assert result.truths == WORKED_FINAL_TRUTHS
        assert result.iterations == 5

    def test_exact_rule_keeps_first_pass_truths(
        self, worked_profile, worked_bounds, worked_init
    ):
        # every estimated truth here has the maximum admissible size, which
        # puts the prior likelihood on a boundary ridge: the exact coordinate
        # updates drift t toward the clamp while the truths stay put
        result = run_amle(
            worked_profile,
            worked_bounds,
            worked_init,
            AmleConfig(max_iterations=1000),
        )
        assert result.converged
        assert result.truths == WORKED_FIRST_TRUTHS
        assert np.all(result.params.t > 0.9)

    def test_reproducible_bit_for_bit(self, worked_profile, worked_bounds, worked_init):
        first = run_amle(worked_profile, worked_bounds, worked_init)
        second = run_amle(worked_profile, worked_bounds, worked_init)
        assert first.truths == second.truths
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.params.packed(), second.params.packed())


class TestSingleConsistentVoter:
    def test_truths_follow_the_ballots(self):
        profile = Profile.build(
            ["a", "b", "c"], ["v"], [[{0}], [{2}], [{0}]]
        )
        bounds = Bounds(1, 1)
        result = run_amle(
            profile, bounds, uniform_init(1, 3), AmleConfig(tolerance=1e-4)
        )
        assert result.truths == (frozenset({0}), frozenset({2}), frozenset({0}))
        assert result.params.p[0] == 1 - 1e-4
        assert result.params.q[0] == 1e-4
        assert result.converged
        assert result.iterations == 2
        # the truth and reliability estimates lock in at the first pass; only
        # the inclusion priors keep sliding toward their own fixed point
        assert all(step.truths == result.truths for step in result.trace)
        assert all(step.params.p[0] == 1 - 1e-4 for step in result.trace)


class TestLoopProperties:
    def test_loglik_never_decreases(self):
        for seed in range(30):
            _, _, result, _ = random_run(seed)
            values = []
            for step in result.trace:
                values.extend([step.loglik_truth_step, step.loglik])
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_converged_runs_are_fixed_points(self):
        for seed in range(20):
            profile, _, result, bounds = random_run(seed)
            if not result.converged:
                continue
            rerun_truths = tuple(
                estimate_truth(inst, result.params, bounds).chosen
                for inst in profile.instances
            )
            assert rerun_truths == result.truths
            p2, q2 = update_reliabilities(profile, rerun_truths)
            t2 = sweep_inclusion_priors(rerun_truths, bounds, result.params.t)
            repacked = np.concatenate([p2, q2, t2])
            assert np.max(np.abs(repacked - result.params.packed())) <= 1e-5

    def test_anytime_truncation_improves_on_start(self, worked_profile, worked_bounds, worked_init):
        for cap in (1, 2, 3):
            truncated = run_amle(
                worked_profile,
                worked_bounds,
                worked_init,
                AmleConfig(max_iterations=cap, tolerance=1e-12),
            )
            assert truncated.iterations == cap
            assert (
                truncated.trace[-1].loglik
                >= truncated.trace[0].loglik_truth_step - 1e-9
            )

    def test_frozen_priors_stay_bit_identical(self, worked_profile, worked_bounds, worked_init):
        result = run_amle(
            worked_profile,
            worked_bounds,
            worked_init,
            AmleConfig(freeze_priors=True),
        )
        for step in result.trace:
            np.testing.assert_array_equal(step.params.t, worked_init.t)

    def test_nonconvergence_is_flagged_not_raised(self, worked_profile, worked_bounds, worked_init):
        result = run_amle(
            worked_profile,
            worked_bounds,
            worked_init,
            AmleConfig(max_iterations=1, tolerance=1e-12),
        )
        assert not result.converged
        assert result.iterations == 1


class TestValidationAndErrors:
    def test_invalid_profile_rejected(self, worked_profile, worked_init):
        with pytest.raises(ValueError, match="l exceeds u"):
            run_amle(worked_profile, Bounds(2, 1), worked_init)

    def test_out_of_range_init_rejected(self, worked_profile, worked_bounds):
        bad = ParamVector([1.0, 0.5, 0.5], [0.4] * 3, [0.5] * 5)
        with pytest.raises(ValueError, match="strictly"):
            run_amle(worked_profile, worked_bounds, bad)

    def test_degenerate_empty_truths_propagate(self):
        profile = Profile.build(["a", "b"], ["v"], [[set()], [set()]])
        with pytest.raises(ValueError, match="empty"):
            run_amle(profile, Bounds(0, 0), uniform_init(1, 2))

    def test_mismatched_init_shape_rejected(self, worked_profile, worked_bounds):
        with pytest.raises(ValueError, match="voter count"):
            run_amle(worked_profile, worked_bounds, uniform_init(4, 5))

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.7, -1e-4])
    def test_config_rejects_epsilon_clamp_outside_half_interval(self, epsilon):
        with pytest.raises(ValueError, match="epsilon_clamp"):
            AmleConfig(epsilon_clamp=epsilon)


def test_estimation_beats_majority_on_average_at_scale():
    # homogeneous synthetic regime: constrained estimation edges out the
    # label-wise majority baseline in mean exact-match accuracy
    bounds = Bounds(1, 2)
    amle_acc, majority_acc = [], []
    for seed in range(40):
        spec = SynthSpec.homogeneous(5, 50, 15, bounds, 0.7, 0.4, seed)
        profile, truths = sample_dataset(spec)
        result = run_amle(profile, bounds, uniform_init(50, 5))
        baseline = tuple(
            majority_rule(inst, bounds, 5) for inst in profile.instances
        )
        amle_acc.append(subset_accuracy(result.truths, truths))
        majority_acc.append(subset_accuracy(baseline, truths))
    assert np.mean(amle_acc) > np.mean(majority_acc)
