import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from approvalmle import (
    ThieleWeights,
    approval_matrix,
    hamming_accuracy,
    harmonic_accuracy,
    subset_accuracy,
)

S = frozenset


def A(sets, m):
    """The ``bool[L, m]`` truth array of a tuple of index sets."""
    return approval_matrix(sets, m)


class TestHamming:
    def test_perfect_agreement(self):
        truths = A((S({0, 1}), S({2})), 4)
        assert hamming_accuracy(truths, truths) == 1.0

    def test_total_disagreement(self):
        estimates = (S({0, 1}),)
        truths = (S({2, 3}),)
        assert hamming_accuracy(A(estimates, 4), A(truths, 4)) == 0.0

    def test_hand_counted_case(self):
        # truth {a,b}, estimate {a,c} over 5 labels: a agrees in, d/e agree
        # out, b and c disagree
        assert hamming_accuracy(A((S({0, 2}),), 5), A((S({0, 1}),), 5)) == pytest.approx(3 / 5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            hamming_accuracy(A((S(),), 3), A((S(), S()), 3))

    def test_rejects_arrays_without_alternatives(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            hamming_accuracy(np.zeros((2, 0), dtype=bool), np.zeros((2, 0), dtype=bool))

    def test_rejects_arrays_without_instances(self):
        with pytest.raises(ValueError, match="^need at least one instance$"):
            hamming_accuracy(np.zeros((0, 2), dtype=bool), np.zeros((0, 2), dtype=bool))

    @given(st.permutations(range(5)))
    def test_invariant_under_joint_relabeling(self, perm):
        estimates = (S({0, 2}), S({1}))
        truths = (S({0, 1}), S({3}))
        mapped_est = tuple(S(perm[j] for j in s) for s in estimates)
        mapped_tru = tuple(S(perm[j] for j in s) for s in truths)
        assert hamming_accuracy(A(mapped_est, 5), A(mapped_tru, 5)) == hamming_accuracy(
            A(estimates, 5), A(truths, 5)
        )


class TestSubset:
    def test_perfect(self):
        truths = A((S({0}), S({1, 2})), 3)
        assert subset_accuracy(truths, truths) == 1.0

    def test_no_matches(self):
        assert subset_accuracy(A((S({0}),), 2), A((S({1}),), 2)) == 0.0

    def test_three_of_four(self):
        estimates = (S({0}), S({1}), S({2}), S({3}))
        truths = (S({0}), S({1}), S({2}), S({0}))
        assert subset_accuracy(A(estimates, 4), A(truths, 4)) == 0.75

    def test_rejects_arrays_without_alternatives(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            subset_accuracy(np.zeros((2, 0), dtype=bool), np.zeros((2, 0), dtype=bool))


class TestHarmonic:
    def test_overlap_two_of_five(self):
        assert harmonic_accuracy(A((S({0, 1}),), 5), A((S({0, 1}),), 5)) == pytest.approx(
            1 / 5 + 1 / 4
        )

    def test_zero_overlap(self):
        assert harmonic_accuracy(A((S({0}),), 5), A((S({1}),), 5)) == 0.0

    def test_normalized_self_score_is_one(self):
        truths = A((S({0, 1}), S({2})), 5)
        assert harmonic_accuracy(truths, truths, normalized=True) == 1.0

    def test_normalized_range(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            estimates = tuple(
                S(np.flatnonzero(rng.random(m) < 0.5).tolist()) for _ in range(4)
            )
            truths = tuple(
                S(np.flatnonzero(rng.random(m) < 0.5).tolist()) for _ in range(4)
            )
            value = harmonic_accuracy(A(estimates, m), A(truths, m), normalized=True)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_empty_reference_convention(self):
        assert harmonic_accuracy(A((S(),), 3), A((S(),), 3), normalized=True) == 1.0
        assert harmonic_accuracy(A((S({0}),), 3), A((S(),), 3), normalized=True) == 0.0

    def test_rejects_arrays_without_alternatives(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            harmonic_accuracy(np.zeros((2, 0), dtype=bool), np.zeros((2, 0), dtype=bool))

    def test_custom_weights_override(self):
        # 0/1-style weights inside the same interface
        w = ThieleWeights([0.0, 0.0, 1.0])
        estimates = (S({0, 1}), S({0}))
        truths = (S({0, 1}), S({0, 1}))
        assert harmonic_accuracy(A(estimates, 2), A(truths, 2), weights=w) == pytest.approx(0.5)

    def test_rejects_weights_of_another_length(self):
        truths = A((S({0}),), 2)
        with pytest.raises(ValueError, match=r"^need m \+ 1 = 3 weights, got 2$"):
            harmonic_accuracy(truths, truths, weights=ThieleWeights([0.0, 1.0]))


class TestThieleWeights:
    def test_harmonic_table(self):
        w = ThieleWeights.harmonic(5).weights
        assert w[0] == 0.0
        assert w[1] == 1 / 5
        assert w[2] == 1 / 5 + 1 / 4
        assert len(w) == 6

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            ThieleWeights([0.5, 1.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ThieleWeights([0.0, 0.5, 0.4])

    @pytest.mark.parametrize(
        "weights, shown",
        [([0.0, float("nan")], "[0.0, nan]"), ([0.0, 1.0, float("inf")], "[0.0, 1.0, inf]"),
         ([0.0, -float("inf")], "[0.0, -inf]"), ([[0.0, 1.0]], "[[0.0, 1.0]]"), (0.0, "0.0")],
        ids=["nan", "inf", "minus-inf", "2-D", "scalar"],
    )
    def test_rejects_weights_that_are_not_finite_or_not_1d(self, weights, shown):
        # a NaN weight made harmonic_accuracy return nan; a 2-D one met
        # numpy's "truth value of an array is ambiguous"
        with pytest.raises(ValueError, match=re.escape(
            f"weights must be a 1-D array of finite numbers, got {shown}"
        ) + "$"):
            ThieleWeights(weights)


def test_metrics_agree_on_equality():
    truths = A((S({0, 1}), S({2}), S({1, 3})), 4)
    assert hamming_accuracy(truths, truths) == 1.0
    assert subset_accuracy(truths, truths) == 1.0
    assert harmonic_accuracy(truths, truths, normalized=True) == 1.0
