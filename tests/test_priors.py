import itertools
import math

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    CardinalityDP,
    approval_matrix,
    cardinality_mass,
    clamp_unit,
    mass_given_excluded,
    mass_given_included,
    sweep_inclusion_priors,
    update_inclusion_prior,
)
from conftest import voterless_counts


def enumerated_mass(t, bounds):
    """Oracle: exhaustive sum over all admissible subsets."""
    m = len(t)
    total = 0.0
    for k in range(bounds.lower, bounds.upper + 1):
        for combo in itertools.combinations(range(m), k):
            prod = 1.0
            for j in range(m):
                prod *= t[j] if j in combo else 1.0 - t[j]
            total += prod
    return total


class TestCardinalityMass:
    def test_unconstrained_is_exactly_one(self):
        rng = np.random.default_rng(7)
        t = clamp_unit(rng.random(6))
        assert cardinality_mass(t, Bounds(0, 6)) == 1.0

    def test_four_coins_at_most_one(self):
        assert cardinality_mass([0.5] * 4, Bounds(0, 1)) == pytest.approx(
            0.3125, abs=1e-15
        )

    def test_five_coins_one_or_two(self):
        # 5 singletons + 10 pairs out of 32 equally likely subsets
        assert cardinality_mass([0.5] * 5, Bounds(1, 2)) == pytest.approx(
            15 / 32, abs=1e-15
        )

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            m = int(rng.integers(1, 13))
            lower = int(rng.integers(0, m + 1))
            upper = int(rng.integers(lower, m + 1))
            t = clamp_unit(rng.random(m))
            bounds = Bounds(lower, upper)
            assert cardinality_mass(t, bounds) == pytest.approx(
                enumerated_mass(t, bounds), abs=1e-12
            )

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            cardinality_mass([0.5, 1.0], Bounds(0, 1))


class TestCardinalityDP:
    def test_base_cell_and_row_masses(self):
        rng = np.random.default_rng(5)
        t = clamp_unit(rng.random(7))
        dp = CardinalityDP.build(t, 4)
        assert dp.table[0, 0] == 1.0
        sums = dp.table.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        # untruncated rows carry full mass
        for j in range(5):
            assert sums[j] == pytest.approx(1.0, abs=1e-12)


class TestConditionalMasses:
    def test_included_worked_value(self):
        t = [0.5] * 5
        assert mass_given_included(0, t, Bounds(1, 2)) == pytest.approx(
            0.3125, abs=1e-15
        )

    def test_included_unconstrained(self):
        assert mass_given_included(2, [0.3] * 4, Bounds(0, 4)) == 1.0

    def test_included_two_remaining_coins(self):
        # P(0 or 1 of two fair coins) = 3/4
        assert mass_given_included(0, [0.2, 0.5, 0.5], Bounds(1, 2)) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_included_rejects_zero_upper(self):
        with pytest.raises(ValueError):
            mass_given_included(0, [0.5, 0.5], Bounds(0, 0))

    def test_excluded_worked_value(self):
        # of the 16 subsets of the other 4 coins, 4 singletons + 6 pairs qualify
        t = [0.5] * 5
        assert mass_given_excluded(0, t, Bounds(1, 2)) == pytest.approx(
            0.625, abs=1e-15
        )

    def test_excluded_matches_enumeration(self):
        rng = np.random.default_rng(99)
        t = clamp_unit(rng.random(5))
        bounds = Bounds(1, 2)
        rest = np.delete(np.asarray(t), 1)
        assert mass_given_excluded(1, t, bounds) == pytest.approx(
            enumerated_mass(rest, Bounds(1, 2)), abs=1e-12
        )

    def test_excluded_unconstrained(self):
        assert mass_given_excluded(1, [0.4] * 3, Bounds(0, 3)) == 1.0

    def test_excluded_single_winner(self):
        # the other alternative must be in: probability t_2
        assert mass_given_excluded(0, [0.9, 0.5], Bounds(1, 1)) == pytest.approx(0.5)

    def test_excluded_rejects_full_lower(self):
        with pytest.raises(ValueError):
            mass_given_excluded(0, [0.5, 0.5], Bounds(2, 2))

    def test_decomposition_identity(self):
        # total mass splits by whether j is included:
        # mass = t_j * mass_in + (1 - t_j) * mass_out
        rng = np.random.default_rng(321)
        for _ in range(60):
            m = int(rng.integers(2, 13))
            lower = int(rng.integers(0, m))
            upper = int(rng.integers(max(lower, 1), m + 1))
            t = clamp_unit(rng.random(m))
            bounds = Bounds(lower, upper)
            total = cardinality_mass(t, bounds)
            for j in range(m):
                split = t[j] * mass_given_included(j, t, bounds) + (
                    1 - t[j]
                ) * mass_given_excluded(j, t, bounds)
                assert split == pytest.approx(total, abs=1e-12)


def profile_objective(t_j, j, truths, bounds, t):
    """Log-likelihood profile in the single coordinate t_j."""
    candidate = np.array(t, dtype=float)
    candidate[j] = t_j
    length = len(truths)
    occ = sum(1 for s in truths if j in s)
    mass = cardinality_mass(candidate, bounds)
    return (
        -length * math.log(mass)
        + occ * math.log(t_j)
        + (length - occ) * math.log(1 - t_j)
    )


class TestUpdateInclusionPrior:
    def test_worked_value(self):
        truths = (
            frozenset({1, 3}),
            frozenset({1, 4}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        )
        t = [0.5] * 5
        value = update_inclusion_prior(0, approval_matrix(truths, 5), Bounds(1, 2), t)
        # occ=1, mass_in=0.3125, mass_out=0.625
        assert value == pytest.approx(0.625 / (3 * 0.3125 + 0.625), abs=1e-12)
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_never_occurring_clamps_low(self):
        truths = approval_matrix((frozenset({1}),) * 3, 3)
        assert update_inclusion_prior(0, truths, Bounds(1, 2), [0.5] * 3) == 1e-4

    def test_always_occurring_unconstrained_clamps_high(self):
        truths = (frozenset({0}), frozenset({0, 1}))
        assert (
            update_inclusion_prior(0, approval_matrix(truths, 3), Bounds(0, 3), [0.5] * 3)
            == 1 - 1e-4
        )

    def test_maximizes_profile_likelihood(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(1e-4, 1 - 1e-4, 10_000)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            lower = int(rng.integers(0, 2))
            upper = int(rng.integers(max(lower, 1), m + 1))
            bounds = Bounds(lower, upper)
            t = clamp_unit(rng.random(m))
            length = int(rng.integers(2, 7))
            truths = []
            while len(truths) < length:
                size = int(rng.integers(lower, upper + 1))
                truths.append(frozenset(rng.choice(m, size=size, replace=False).tolist()))
            j = int(rng.integers(0, m))
            occ = sum(1 for s in truths if j in s)
            if occ in (0, length):
                continue  # boundary maximizers sit on the clamp, not the grid
            estimate = update_inclusion_prior(j, approval_matrix(truths, m), bounds, t)
            values = [profile_objective(x, j, truths, bounds, t) for x in grid]
            best = grid[int(np.argmax(values))]
            assert abs(estimate - best) < 1e-3

    def test_sweep_uses_updated_coordinates(self):
        truths = (
            frozenset({1, 3}),
            frozenset({1, 4}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        )
        swept = sweep_inclusion_priors(voterless_counts(truths, 5), Bounds(1, 2), [0.5] * 5)
        # first coordinate as in test_worked_value
        assert swept[0] == pytest.approx(0.4, abs=1e-12)
        # second coordinate must have seen the updated first one
        t_after_first = np.array([0.4, 0.5, 0.5, 0.5, 0.5])
        expected = update_inclusion_prior(
            1, approval_matrix(truths, 5), Bounds(1, 2), t_after_first
        )
        assert swept[1] == pytest.approx(expected, abs=1e-15)

    def test_sweep_builds_no_table_per_coordinate(self, monkeypatch):
        # the benchmark counts CardinalityDP.build calls as priors.dp_builds
        import approvalmle.priors

        build = CardinalityDP.build
        calls = []

        def counting(t, cap):
            calls.append(len(t))
            return build(t, cap)

        monkeypatch.setattr(approvalmle.priors.CardinalityDP, "build", counting)
        rng = np.random.default_rng(3)
        m = 20
        truths = tuple(
            frozenset(rng.choice(m, size=int(rng.integers(3, 9)), replace=False).tolist())
            for _ in range(30)
        )
        swept = sweep_inclusion_priors(voterless_counts(truths, m), Bounds(3, 8), np.full(m, 0.25))
        assert len(calls) <= 1
        # every coordinate took the interior update, which needs both masses
        assert np.all((swept > 1e-4) & (swept < 1 - 1e-4))
