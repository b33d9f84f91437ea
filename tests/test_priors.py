import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_seed as ref
from approvalmle import (
    Bounds,
    CardinalityDP,
    approval_matrix,
    cardinality_mass,
    clamp_unit,
    sweep_inclusion_priors,
)
from approvalmle.priors import _extend, _sweep
from conftest import WORKED_FIRST_TRUTHS, conditional_masses, voterless_counts


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

    def test_underflowing_mass_is_one_line_naming_the_bounds(self):
        # P(150 <= |S| <= 200) under 400 coins of bias 1e-3 is below the
        # smallest double: it used to be returned as 0.0
        message = r"^the prior mass of set sizes in \[150, 200\] underflows to 0$"
        with pytest.raises(ValueError, match=message):
            cardinality_mass(np.full(400, 1e-3), Bounds(150, 200))

    @pytest.mark.parametrize("bounds", [Bounds(2, 1), Bounds(4, 5)], ids=["inverted", "above-m"])
    def test_empty_interval_is_exactly_zero(self, bounds):
        assert cardinality_mass([0.5] * 3, bounds) == 0.0


#: Entries of a counting row: zeros and subnormals next to ordinary values.
ROW_ENTRY = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))
#: Coin probabilities from 1e-300 up to the largest double below 1.
COIN = st.one_of(
    st.sampled_from([1e-300, 1e-16, 0.5, 1 - 1e-16, 1 - 2**-53]),
    st.floats(1e-300, 1 - 2**-53),
)


class TestExtend:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(ROW_ENTRY, min_size=1, max_size=41), st.lists(COIN, max_size=9))
    def test_matches_the_one_coin_step_bit_for_bit(self, row, coins):
        # two coins per pass, an odd count padded with a probability-0 coin,
        # must round every entry as one coin per pass does
        want = ref.extend_one_coin(row[:], coins)
        got = row[:]
        assert _extend(got, coins) is got
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestSweepMass:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_is_the_mass_of_the_swept_priors_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 16))
        lower = data.draw(st.integers(0, m))
        upper = data.draw(st.integers(lower, m))
        bounds = data.draw(
            st.sampled_from(
                [Bounds(lower, upper), Bounds(0, upper), Bounds(lower, m), Bounds(0, m)]
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        length = data.draw(st.integers(1, 12))
        truths = tuple(
            frozenset(np.flatnonzero(rng.random(m) < rng.random()).tolist()) for _ in range(length)
        )
        counts = voterless_counts(truths, m)
        t = clamp_unit(rng.random(m))
        rule = data.draw(st.sampled_from(("exact", "legacy")))
        try:
            swept, mass = _sweep(counts, bounds, t, 1e-4, rule)
        except ValueError:
            assume(False)
        assert swept.tolist() == sweep_inclusion_priors(counts, bounds, t, 1e-4, rule).tolist()
        assert mass.hex() == cardinality_mass(swept, bounds).hex()


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
        a_in, _ = conditional_masses(0, [0.5] * 5, Bounds(1, 2))
        assert a_in == pytest.approx(0.3125, abs=1e-15)

    def test_included_unconstrained(self):
        a_in, _ = conditional_masses(2, [0.3] * 4, Bounds(0, 4))
        assert a_in == 1.0

    def test_included_two_remaining_coins(self):
        # P(0 or 1 of two fair coins) = 3/4
        a_in, _ = conditional_masses(0, [0.2, 0.5, 0.5], Bounds(1, 2))
        assert a_in == pytest.approx(0.75, abs=1e-15)

    def test_included_rejects_zero_upper(self):
        # alternative 0 occurs in one of two truths, which no upper bound of
        # 0 admits: the update needs the mass with 0 forced in
        counts = voterless_counts((frozenset({0}), frozenset()), 2)
        with pytest.raises(ValueError, match="never be included under upper bound 0"):
            sweep_inclusion_priors(counts, Bounds(0, 0), [0.5, 0.5])

    @pytest.mark.parametrize("bounds", [Bounds(2, 1), Bounds(0, 4), Bounds(-1, 2)],
                             ids=["inverted", "upper-above-m", "negative-lower"])
    def test_rejects_bounds_that_do_not_fit_m(self, bounds):
        # with inverted bounds both conditional masses are 0
        counts = voterless_counts((frozenset({0}), frozenset({1})), 3)
        message = rf"^invalid bounds \({bounds.lower}, {bounds.upper}\) for m=3$"
        with pytest.raises(ValueError, match=message):
            sweep_inclusion_priors(counts, bounds, [0.5] * 3)

    def test_underflowing_masses_are_one_line_naming_the_bounds(self):
        # the masses of 399 coins of bias 1e-3 on counts 149..199 and 150..200
        # are below the smallest double: the update divided 0 by 0
        truths = (frozenset(range(160)),) + (frozenset(range(1, 161)),) * 2
        message = r"^the prior masses of alternative 0 under bounds \[150, 200\] underflow to 0$"
        with pytest.raises(ValueError, match=message):
            sweep_inclusion_priors(voterless_counts(truths, 400), Bounds(150, 200), [1e-3] * 400)

    def test_excluded_worked_value(self):
        # of the 16 subsets of the other 4 coins, 4 singletons + 6 pairs qualify
        _, a_out = conditional_masses(0, [0.5] * 5, Bounds(1, 2))
        assert a_out == pytest.approx(0.625, abs=1e-15)

    def test_excluded_matches_enumeration(self):
        rng = np.random.default_rng(99)
        t = clamp_unit(rng.random(5))
        bounds = Bounds(1, 2)
        rest = np.delete(np.asarray(t), 1)
        _, a_out = conditional_masses(1, t, bounds)
        assert a_out == pytest.approx(enumerated_mass(rest, Bounds(1, 2)), abs=1e-12)

    def test_excluded_unconstrained(self):
        _, a_out = conditional_masses(1, [0.4] * 3, Bounds(0, 3))
        assert a_out == 1.0

    def test_excluded_single_winner(self):
        # the other alternative must be in: probability t_2
        _, a_out = conditional_masses(0, [0.9, 0.5], Bounds(1, 1))
        assert a_out == pytest.approx(0.5)

    def test_excluded_rejects_full_lower(self):
        # alternative 0 is missing from one truth, which no lower bound of
        # m = 2 admits: the update needs the mass with 0 forced out
        counts = voterless_counts((frozenset({0, 1}), frozenset({1})), 2)
        with pytest.raises(ValueError, match="never be excluded under lower bound 2"):
            sweep_inclusion_priors(counts, Bounds(2, 2), [0.5, 0.5])

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
                a_in, a_out = conditional_masses(j, t, bounds)
                split = t[j] * a_in + (1 - t[j]) * a_out
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
    def test_rejects_priors_sized_for_other_counts(self):
        counts = voterless_counts(WORKED_FIRST_TRUTHS, 5)
        message = r"^4 inclusion priors for truth counts over 5 alternatives$"
        with pytest.raises(ValueError, match=message):
            sweep_inclusion_priors(counts, Bounds(1, 2), [0.5] * 4)

    def test_worked_value(self):
        counts = voterless_counts(WORKED_FIRST_TRUTHS, 5)
        swept = sweep_inclusion_priors(counts, Bounds(1, 2), [0.5] * 5)
        # occ=1, mass_in=0.3125, mass_out=0.625
        assert swept[0] == pytest.approx(0.625 / (3 * 0.3125 + 0.625), abs=1e-12)
        assert swept[0] == pytest.approx(0.4, abs=1e-12)

    def test_never_occurring_clamps_low(self):
        counts = voterless_counts((frozenset({1}),) * 3, 3)
        assert sweep_inclusion_priors(counts, Bounds(1, 2), [0.5] * 3)[0] == 1e-4

    def test_always_occurring_unconstrained_clamps_high(self):
        counts = voterless_counts((frozenset({0}), frozenset({0, 1})), 3)
        assert sweep_inclusion_priors(counts, Bounds(0, 3), [0.5] * 3)[0] == 1 - 1e-4

    def test_maximizes_profile_likelihood(self):
        # each coordinate maximizes the objective in t_j alone, with the
        # coordinates below it already swept and those above it still old
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
            swept = sweep_inclusion_priors(voterless_counts(truths, m), bounds, t)
            seen = np.concatenate([swept[:j], t[j:]])
            values = [profile_objective(x, j, truths, bounds, seen) for x in grid]
            best = grid[int(np.argmax(values))]
            assert abs(swept[j] - best) < 1e-3

    def test_sweep_uses_updated_coordinates(self):
        counts = voterless_counts(WORKED_FIRST_TRUTHS, 5)
        swept = sweep_inclusion_priors(counts, Bounds(1, 2), [0.5] * 5)
        # the second coordinate's closed form must use the updated first one
        a_in, a_out = conditional_masses(1, np.concatenate([swept[:1], [0.5] * 4]), Bounds(1, 2))
        occ, length = 3, 4
        expected = occ * a_out / ((length - occ) * a_in + occ * a_out)
        assert swept[1] == pytest.approx(expected, abs=1e-15)
        # the old first coordinate gives another value
        a_in, a_out = conditional_masses(1, [0.5] * 5, Bounds(1, 2))
        assert swept[1] != pytest.approx(occ * a_out / ((length - occ) * a_in + occ * a_out))

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

    def test_no_counting_row_for_trivial_intervals(self, monkeypatch):
        # under [0, m] every interval is empty or covers every count, so its
        # mass is exact without a row; the sweep only grows its prefix
        import approvalmle.priors

        extend = approvalmle.priors._extend
        calls = []

        def counting(row, probs):
            calls.append(len(row))
            return extend(row, probs)

        monkeypatch.setattr(approvalmle.priors, "_extend", counting)
        m = 6
        t = np.linspace(0.2, 0.8, m)
        assert cardinality_mass(t, Bounds(0, m)) == 1.0
        assert calls == []
        truths = (frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({3}), frozenset())
        counts = voterless_counts(truths, m)
        swept = sweep_inclusion_priors(counts, Bounds(0, m), t)
        assert len(calls) == m
        # with both masses 1 the update is the raw occurrence rate
        rates = counts.occurrences / len(truths)
        assert swept.tolist() == clamp_unit(rates).tolist()
