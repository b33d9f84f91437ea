import hashlib
import math
import re

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    ParamVector,
    SynthSpec,
    run_amle,
    sample_dataset,
    sample_profile,
    sample_truths,
    uniform_init,
)
from approvalmle.model import approval_matrix


def spec_with(seed=0, **overrides):
    base = dict(m=5, n=4, num_instances=6, bounds=Bounds(1, 2), p=0.7, q=0.3, seed=seed)
    base.update(overrides)
    return SynthSpec.homogeneous(**base)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a_truths = sample_truths(spec_with(seed=5))
        b_truths = sample_truths(spec_with(seed=5))
        assert a_truths.dtype == bool and not a_truths.flags.writeable
        np.testing.assert_array_equal(a_truths, b_truths)
        a_profile = sample_profile(spec_with(seed=5), a_truths)
        b_profile = sample_profile(spec_with(seed=5), b_truths)
        assert a_profile == b_profile

    def test_different_seeds_differ(self):
        one, two = sample_truths(spec_with(seed=1)), sample_truths(spec_with(seed=2))
        assert not np.array_equal(one, two)

    def test_seeded_draw_is_pinned(self):
        # the benchmark's datasets, and so its accuracy figures, are such draws
        spec = SynthSpec.homogeneous(6, 9, 20, Bounds(1, 3), 0.75, 0.3, 13, t=0.4)
        profile, truths = sample_dataset(spec)
        drawn = profile.approvals.tobytes() + approval_matrix(truths, 6).tobytes()
        assert hashlib.sha256(drawn).hexdigest() == (
            "e917c1e08eb4f6cb81919a0f4b91cfd0ea4f53c3260f3c8c8098b4728d47343f"
        )


class TestSpecValidation:
    @pytest.mark.parametrize("field", ["num_instances"])
    def test_negative_size_rejected(self, field):
        params = ParamVector([0.7], [0.3], [0.5] * 2)
        fields = dict(num_instances=1, bounds=Bounds(0, 0), params=params, seed=0)
        fields[field] = -1
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer, got -1$"):
            SynthSpec(**fields)

    @pytest.mark.parametrize(
        "field, value, message",
        [("num_instances", 2.5, "num_instances must be an integer, got 2.5"),
         ("num_instances", True, "num_instances must be an integer, got True"),
         ("seed", 2.5, "seed must be an integer, got 2.5"),
         ("seed", np.True_, "seed must be an integer, got np.True_"),
         ("seed", -1, "seed must be a non-negative integer, got -1")],
        ids=["float-count", "bool-count", "float-seed", "bool-seed", "negative-seed"],
    )
    def test_count_and_seed_must_be_integers(self, field, value, message):
        # a float met "'float' object cannot be interpreted as an integer" at
        # the first draw, and a negative seed numpy's unnamed message
        fields = dict(num_instances=1, bounds=Bounds(0, 0), seed=0,
                      params=ParamVector([0.7], [0.3], [0.5] * 2))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(**fields)

    def test_numpy_integers_are_integers(self):
        params = ParamVector([0.7], [0.3], [0.5] * 2)
        spec = SynthSpec(np.int64(2), Bounds(0, 2), params, np.uint8(4))
        np.testing.assert_array_equal(sample_truths(spec),
                                      sample_truths(SynthSpec(2, Bounds(0, 2), params, 4)))

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_homogeneous_size_that_is_not_an_integer_rejected_naming_the_field(self, field):
        # np.full met 2.5 with "'float' object cannot be interpreted as an integer"
        sizes = dict(m=3, n=2)
        sizes[field] = 2.5
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
            SynthSpec.homogeneous(**sizes, num_instances=2, bounds=Bounds(0, 0), p=0.7, q=0.3,
                                  seed=0)

    @pytest.mark.parametrize("size", [-1, 0])
    @pytest.mark.parametrize("field", ["m", "n"])
    def test_homogeneous_size_below_one_rejected_naming_the_field(self, field, size):
        sizes = dict(m=3, n=2)
        sizes[field] = size
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {size}$"):
            SynthSpec.homogeneous(**sizes, num_instances=2, bounds=Bounds(0, 0), p=0.7, q=0.3,
                                  seed=0)

    @pytest.mark.parametrize(
        "field, params",
        [("m", ParamVector([0.7], [0.3], [])), ("n", ParamVector([], [], [0.5]))],
    )
    def test_constructor_refuses_a_spec_without_alternatives_or_voters(self, field, params):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            SynthSpec(2, Bounds(0, 0), params, seed=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p", [[0.7]], r"^p must be 1-D, got shape \(1, 1\)$"),
            ("t", [[0.5]], r"^t must be 1-D, got shape \(1, 1\)$"),
            ("t", 0.5, r"^t must be 1-D, got shape \(\)$"),
            ("t", ["a", "b"], "^t must be a list of numbers$"),
        ],
        ids=["2-D-p", "2-D-t-with-m-1", "scalar-t", "non-numeric-t"],
    )
    def test_malformed_rates_refused_naming_the_field(self, field, value, message):
        rates = dict(p=[0.7], q=[0.3], t=[0.5])
        rates[field] = value
        with pytest.raises(ValueError, match=message):
            SynthSpec(1, Bounds(0, 1), ParamVector(**rates), seed=0)


class TestSampleTruths:
    def test_unconstrained_bernoulli_sets(self):
        spec = spec_with(bounds=Bounds(0, 5), num_instances=2000, t=0.3)
        truths = sample_truths(spec)
        freq = truths.sum(1).mean() / spec.m
        sigma = math.sqrt(0.3 * 0.7 / (2000 * spec.m))
        assert abs(freq - 0.3) < 3 * sigma

    def test_sizes_respect_bounds(self):
        truths = sample_truths(spec_with(num_instances=500))
        assert truths.shape == (500, 5)
        assert ((truths.sum(1) >= 1) & (truths.sum(1) <= 2)).all()

    def test_single_winner_symmetry(self):
        spec = spec_with(m=4, bounds=Bounds(1, 1), num_instances=10_000)
        truths = sample_truths(spec)
        assert (truths.sum(1) == 1).all()
        freq = truths.sum(0) / 10_000
        sigma = math.sqrt(0.25 * 0.75 / 10_000)
        assert np.all(np.abs(freq - 0.25) < 3 * sigma)

    def test_size_ratio_matches_prior(self):
        # fair coins, sizes 1..2 over 5 alternatives: 5 singles vs 10 pairs
        truths = sample_truths(spec_with(num_instances=10_000))
        share_single = np.mean(truths.sum(1) == 1)
        sigma = math.sqrt((1 / 3) * (2 / 3) / 10_000)
        assert abs(share_single - 1 / 3) < 3 * sigma

    def test_pathological_prior_refused(self):
        spec = SynthSpec(
            num_instances=1,
            bounds=Bounds(8, 8),
            params=ParamVector(p=np.full(2, 0.7), q=np.full(2, 0.3), t=np.full(8, 1e-3)),
            seed=0,
        )
        with pytest.raises(ValueError, match="rejection"):
            sample_truths(spec)

    def test_underflowing_prior_mass_names_the_bounds(self):
        spec = spec_with(m=400, bounds=Bounds(150, 200), t=1e-3)
        message = r"^the prior mass of set sizes in \[150, 200\] underflows to 0$"
        with pytest.raises(ValueError, match=message):
            sample_truths(spec)


class TestSampleProfile:
    @pytest.mark.parametrize(
        "truths, got",
        [
            (np.zeros((1, 5), dtype=bool), r"bool array of shape \(1, 5\)"),
            (np.zeros((2, 4), dtype=bool), r"bool array of shape \(2, 4\)"),
            (np.zeros((2, 5), dtype=int), r"int64 array of shape \(2, 5\)"),
            # the set form: one frozenset per instance, as sample_dataset returns
            ((frozenset({0}), frozenset({1, 2})), "tuple"),
        ],
        ids=["too-few-rows", "too-few-columns", "int-array", "tuple-of-sets"],
    )
    def test_refuses_truths_of_another_shape(self, truths, got):
        spec = spec_with(num_instances=2)
        with pytest.raises(ValueError, match=r"^truths must be a bool array of shape "
                                             r"\(L, m\) = \(2, 5\), got " + got + "$"):
            sample_profile(spec, truths)

    def test_noiseless_voter_copies_truth(self):
        spec = spec_with(p=1 - 1e-12, q=1e-12, num_instances=20)
        truths = sample_truths(spec)
        profile = sample_profile(spec, truths)
        assert (profile.approvals == truths[:, np.newaxis]).all()

    def test_noiseless_voters_copy_a_truth_array(self):
        # each row is one truth set, not a set of the values 0 and 1
        truths = approval_matrix([{2}, {3, 4}, set(), {0, 1, 2, 3, 4}], 5)
        spec = spec_with(p=1 - 1e-12, q=1e-12, num_instances=4)
        profile = sample_profile(spec, truths)
        assert (profile.approvals == truths[:, np.newaxis]).all()

    def test_coin_flip_voter_ignores_truth(self):
        spec = spec_with(p=0.5, q=0.5, n=1, num_instances=2000)
        truths = sample_truths(spec)
        profile = sample_profile(spec, truths)
        approvals = sum(len(inst.ballots[0]) for inst in profile.instances)
        total = 2000 * spec.m
        sigma = math.sqrt(0.25 / total)
        assert abs(approvals / total - 0.5) < 3 * sigma

    def test_empirical_true_positive_rate(self):
        spec = spec_with(p=0.7, q=0.3, n=1, num_instances=4000)
        truths = sample_truths(spec)
        profile = sample_profile(spec, truths)
        positives = int(truths.sum())
        hits = int((profile.approvals[:, 0] & truths).sum())
        sigma = math.sqrt(0.7 * 0.3 / positives)
        assert abs(hits / positives - 0.7) < 3 * sigma


@pytest.mark.slow
def test_parameters_recovered_from_long_runs():
    # mean absolute estimation error across voters stays small when truths
    # are plentiful, in nearly every seeded draw
    good = 0
    for seed in range(50):
        spec = SynthSpec.homogeneous(5, 30, 200, Bounds(1, 2), 0.8, 0.2, seed)
        profile, _ = sample_dataset(spec)
        result = run_amle(profile, Bounds(1, 2), uniform_init(30, 5))
        p_err = float(np.mean(np.abs(result.params.p - 0.8)))
        q_err = float(np.mean(np.abs(result.params.q - 0.2)))
        if p_err <= 0.05 and q_err <= 0.05:
            good += 1
    assert good >= 45
