import re

import numpy as np
import pytest

from approvalmle import (
    AmleConfig,
    Bounds,
    ParamVector,
    Profile,
    TruthCounts,
    approval_matrix,
    estimate_truth,
    run_amle,
    sample_dataset,
    subset_accuracy,
    sweep_inclusion_priors,
    total_loglik,
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

    def test_truth_step_is_one_whole_profile_call_per_iteration(
        self, worked_profile, worked_bounds, worked_init, monkeypatch
    ):
        # the benchmark's tracer sees the truth step only through this name
        import approvalmle.amle

        calls = []

        def counting(profile, params, bounds):
            calls.append(profile)
            return estimate_truth(profile, params, bounds)

        monkeypatch.setattr(approvalmle.amle, "estimate_truth", counting)
        result = run_amle(worked_profile, worked_bounds, worked_init)
        assert result.iterations > 1
        assert len(calls) == result.iterations
        assert all(profile is worked_profile for profile in calls)

    def test_truths_are_counted_once_per_distinct_truth_array(
        self, worked_profile, worked_bounds, worked_init, monkeypatch
    ):
        # likelihood, reliabilities and prior sweep share one TruthCounts,
        # building it is the only einsum, and an iteration whose truth array
        # repeats the previous one reuses it instead of counting again
        count, einsum = TruthCounts.count.__func__, np.einsum
        builds, contractions = [], []

        def counting_build(cls, approvals, truths):
            builds.append(truths)
            return count(cls, approvals, truths)

        def counting_einsum(*args, **kwargs):
            contractions.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(TruthCounts, "count", classmethod(counting_build))
        monkeypatch.setattr(np, "einsum", counting_einsum)
        for rule in ("exact", "legacy"):
            builds.clear()
            contractions.clear()
            result = run_amle(
                worked_profile, worked_bounds, worked_init,
                AmleConfig(max_iterations=5, prior_update=rule),
            )
            assert result.iterations == 5
            arrays = [step.truth_array for step in result.trace]
            distinct = [arrays[0]] + [
                new for old, new in zip(arrays, arrays[1:]) if not np.array_equal(old, new)
            ]
            assert 1 <= len(distinct) < result.iterations
            assert len(builds) == len(contractions) == len(distinct)
            assert all(np.array_equal(a, b) for a, b in zip(builds, distinct))

    @pytest.mark.parametrize("rule", ["exact", "legacy"])
    @pytest.mark.parametrize("freeze", [False, True], ids=["swept", "frozen"])
    def test_repeated_truths_reuse_what_a_recount_would_give(self, rule, freeze):
        # where the truth array repeats, the step before the update reads the
        # previous step's log-likelihood and (p, q); both must equal, bit for
        # bit, what counting the truths again from scratch gives
        repeats = 0
        for seed in range(6):
            spec = SynthSpec.homogeneous(4, 8, 6, Bounds(1, 2), 0.75, 0.3, seed)
            profile, _ = sample_dataset(spec)
            init = uniform_init(8, 4)
            config = AmleConfig(
                max_iterations=8, tolerance=1e-12, prior_update=rule, freeze_priors=freeze
            )
            result = run_amle(profile, Bounds(1, 2), init, config)
            before = [init] + [step.params for step in result.trace]
            for k, step in enumerate(result.trace):
                counts = TruthCounts.count(profile.approvals, step.truth_array)
                assert step.loglik_truth_step == total_loglik(
                    profile, counts, before[k], Bounds(1, 2)
                )
                p_hat, q_hat = update_reliabilities(profile, counts)
                np.testing.assert_array_equal(step.params.p, p_hat)
                np.testing.assert_array_equal(step.params.q, q_hat)
                if k and np.array_equal(step.truth_array, result.trace[k - 1].truth_array):
                    assert step.loglik_truth_step == result.trace[k - 1].loglik
                    repeats += 1
        assert repeats > 0


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
            rerun_truths = estimate_truth(profile, result.params, bounds)
            assert np.array_equal(rerun_truths, result.truth_array)
            counts = TruthCounts.count(profile.approvals, rerun_truths)
            p2, q2 = update_reliabilities(profile, counts)
            t2 = sweep_inclusion_priors(counts, bounds, result.params.t)
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
        with pytest.raises(ValueError, match=r"invalid bounds \(2, 1\)"):
            run_amle(worked_profile, Bounds(2, 1), worked_init)

    def test_out_of_range_init_rejected(self, worked_profile, worked_bounds):
        with pytest.raises(ValueError, match="strictly"):
            bad = ParamVector([1.0, 0.5, 0.5], [0.4] * 3, [0.5] * 5)
            run_amle(worked_profile, worked_bounds, bad)

    def test_degenerate_empty_truths_propagate(self):
        profile = Profile.build(["a", "b"], ["v"], [[set()], [set()]])
        with pytest.raises(ValueError, match="empty"):
            run_amle(profile, Bounds(0, 0), uniform_init(1, 2))

    def test_mismatched_init_shape_rejected(self, worked_profile, worked_bounds):
        with pytest.raises(
            ValueError, match=r"^parameters sized for a different profile: ballots of shape "
            r"\(3, 5\), parameters for \(n, m\) = \(4, 5\)$"
        ):
            run_amle(worked_profile, worked_bounds, uniform_init(4, 5))

    @pytest.mark.parametrize("tolerance", [0.0, -1e-5, float("nan"), float("inf")])
    def test_config_rejects_tolerance_that_is_not_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            AmleConfig(tolerance=tolerance)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.7, -1e-4])
    def test_config_rejects_epsilon_clamp_outside_half_interval(self, epsilon):
        with pytest.raises(ValueError, match="epsilon_clamp"):
            AmleConfig(epsilon_clamp=epsilon)

    @pytest.mark.parametrize(
        "cap, shown",
        [(2.5, "2.5"), (True, "True"), (np.float64(3.0), "np.float64(3.0)"), ("3", "'3'")],
        ids=["float", "bool", "numpy-float", "string"],
    )
    def test_config_rejects_max_iterations_that_is_not_an_integer(self, cap, shown):
        # 2.5 ran 3 iterations and True ran 1
        with pytest.raises(ValueError, match=re.escape(
            f"max_iterations must be an integer, got {shown}"
        ) + "$"):
            AmleConfig(max_iterations=cap)

    def test_config_takes_a_numpy_integer_cap(self, worked_profile, worked_bounds, worked_init):
        config = AmleConfig(max_iterations=np.int64(2), tolerance=1e-12)
        assert run_amle(worked_profile, worked_bounds, worked_init, config).iterations == 2

    def test_config_rejects_unknown_prior_update_rule(self):
        with pytest.raises(ValueError, match="^unknown prior update rule 'x'$"):
            AmleConfig(prior_update="x")


def test_estimation_beats_majority_on_average_at_scale():
    # homogeneous synthetic regime: constrained estimation edges out the
    # label-wise majority baseline in mean exact-match accuracy
    bounds = Bounds(1, 2)
    amle_acc, majority_acc = [], []
    for seed in range(40):
        spec = SynthSpec.homogeneous(5, 50, 15, bounds, 0.7, 0.4, seed)
        profile, truths = sample_dataset(spec)
        truths = approval_matrix(truths, 5)
        result = run_amle(profile, bounds, uniform_init(50, 5))
        baseline = majority_rule(profile, bounds)
        amle_acc.append(subset_accuracy(result.truth_array, truths))
        majority_acc.append(subset_accuracy(baseline, truths))
    assert np.mean(amle_acc) > np.mean(majority_acc)


@pytest.mark.parametrize("freeze_priors", [False, True], ids=["free", "frozen"])
def test_one_counting_row_for_the_log_likelihoods_per_run(monkeypatch, freeze_priors):
    # the sweep's last prefix row gives the normalizer of the new priors, so
    # the log-likelihoods build the row of the initial priors only
    import approvalmle.likelihood

    mass = approvalmle.likelihood.cardinality_mass
    calls = []

    def counting(t, bounds):
        calls.append(len(t))
        return mass(t, bounds)

    monkeypatch.setattr(approvalmle.likelihood, "cardinality_mass", counting)
    bounds = Bounds(2, 5)
    spec = SynthSpec.homogeneous(9, 6, 12, bounds, 0.7, 0.35, 4)
    profile, _ = sample_dataset(spec)
    config = AmleConfig(tolerance=1e-12, max_iterations=6, freeze_priors=freeze_priors)
    result = run_amle(profile, bounds, uniform_init(6, 9), config)
    changed = [
        not np.array_equal(step.truth_array, before.truth_array)
        for before, step in zip(result.trace, result.trace[1:])
    ]
    # truths changed after the first iteration, so a fresh count was scored
    assert any(changed)
    assert calls == [9]
