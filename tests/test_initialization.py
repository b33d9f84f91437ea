import math

import numpy as np
import pytest

from approvalmle import Profile, anna_karenina_init, random_init, uniform_init
from reference_seed import jaccard_distance, pooled_ballots


class TestJaccardDistance:
    """The reference's distance, which the worked values below are built from."""

    def test_identical_nonempty_sets(self):
        assert jaccard_distance({1, 2}, {1, 2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_distance({0, 3}, {1}) == 1.0  # symdiff 3 over union 3

    def test_disjoint_sets(self):
        assert jaccard_distance({0}, {1, 2}) == 1.0

    def test_both_empty_by_convention(self):
        assert jaccard_distance(set(), set()) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = set(rng.integers(0, 8, size=rng.integers(0, 6)).tolist())
            b = set(rng.integers(0, 8, size=rng.integers(0, 6)).tolist())
            d = jaccard_distance(a, b)
            assert d == jaccard_distance(b, a)
            assert 0.0 <= d <= 1.0


class TestAnnaKarenina:
    def test_worked_profile_values(self, worked_profile):
        pooled = pooled_ballots(worked_profile)
        distances = [
            sum(
                jaccard_distance(pooled[i], pooled[j])
                for j in range(3)
                if j != i
            )
            for i in range(3)
        ]
        assert [round(d, 2) for d in distances] == [1.71, 1.69, 1.65]

        params = anna_karenina_init(worked_profile)
        np.testing.assert_array_equal(params.p, 0.5)
        assert [round(q, 2) for q in params.q] == [0.44, 0.41, 0.32]
        np.testing.assert_array_equal(params.t, 0.5)

    def test_initial_weight_equals_interpolated_weight(self, worked_profile):
        params = anna_karenina_init(worked_profile)
        # with p = 1/2 the log-odds weight reduces to ln((1-q)/q)
        weights = np.log((1 - params.q) / params.q)
        assert round(weights[1], 2) == 0.38
        n = 3
        assert weights[2] == pytest.approx(n / (n + 1), abs=1e-9)
        assert weights[0] == pytest.approx(1 / (n + 1), abs=1e-9)
        assert weights[2] / weights[0] == pytest.approx(n, abs=1e-9)

    def test_weight_order_follows_distances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m, L = 5, 4, 3
            profile = Profile.build(
                [f"a{j}" for j in range(m)],
                [f"v{i}" for i in range(n)],
                [
                    [
                        frozenset(np.flatnonzero(rng.random(m) < 0.5).tolist())
                        for _ in range(n)
                    ]
                    for _ in range(L)
                ],
            )
            pooled = pooled_ballots(profile)
            distances = np.array(
                [
                    sum(
                        jaccard_distance(pooled[i], pooled[j])
                        for j in range(n)
                        if j != i
                    )
                    for i in range(n)
                ]
            )
            if distances.min() == distances.max():
                continue
            params = anna_karenina_init(profile)
            weights = np.log((1 - params.q) / params.q)
            for i in range(n):
                for j in range(n):
                    if distances[i] < distances[j]:
                        assert weights[i] >= weights[j] - 1e-12
            assert np.all((params.q > 0) & (params.q < 1))

    def test_identical_voters_fall_back_to_uniform(self):
        profile = Profile.build(
            ["a", "b"], ["v1", "v2", "v3"], [[{0}, {0}, {0}], [{1}, {1}, {1}]]
        )
        with pytest.warns(UserWarning, match="equidistant"):
            params = anna_karenina_init(profile)
        np.testing.assert_array_equal(params.p, 0.6)
        np.testing.assert_array_equal(params.q, 0.4)

    def test_two_voters_are_always_equidistant(self):
        # with exactly two voters the distance sums coincide by symmetry, so
        # there is no closer/farther voter to spread weights over
        profile = Profile.build(["a", "b"], ["v1", "v2"], [[{0}, {1}]])
        with pytest.warns(UserWarning, match="equidistant"):
            params = anna_karenina_init(profile)
        np.testing.assert_array_equal(params.p, 0.6)

    def test_single_voter_rejected(self):
        profile = Profile.build(["a"], ["v"], [[{0}]])
        with pytest.raises(ValueError):
            anna_karenina_init(profile)


class TestUniformInit:
    def test_defaults(self):
        params = uniform_init(3, 4)
        np.testing.assert_array_equal(params.p, [0.6] * 3)
        np.testing.assert_array_equal(params.q, [0.4] * 3)
        np.testing.assert_array_equal(params.t, [0.5] * 4)

    def test_equal_rates_mean_zero_weight(self):
        params = uniform_init(2, 2, p0=0.3, q0=0.3)
        weight = math.log(
            params.p[0] * (1 - params.q[0]) / (params.q[0] * (1 - params.p[0]))
        )
        assert weight == pytest.approx(0.0, abs=1e-12)

    def test_single_voter(self):
        params = uniform_init(1, 1)
        assert params.p.shape == (1,)

    def test_rejects_boundary_values(self):
        with pytest.raises(ValueError):
            uniform_init(2, 2, p0=1.0)


class TestRandomInit:
    def test_seed_determinism(self):
        a = random_init(6, 4, seed=42)
        b = random_init(6, 4, seed=42)
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.q, b.q)

    def test_interval_construction_keeps_weights_positive(self):
        params = random_init(1000, 2, seed=7)
        assert np.all(params.p > 0.5)
        assert np.all(params.q < 0.5)
        assert np.all(params.q > 0.0)
        assert np.all(params.p < 1.0)

    def test_sample_means(self):
        params = random_init(10_000, 2, seed=11)
        # uniform on (0.5, 1) and (0, 0.5): mean 0.75 / 0.25, sd = width/sqrt(12)
        sigma = 0.5 / math.sqrt(12) / math.sqrt(10_000)
        assert abs(params.p.mean() - 0.75) < 3 * sigma
        assert abs(params.q.mean() - 0.25) < 3 * sigma
