"""Metamorphic relations of the exact-rule AMLE run, which hold bit for bit
at sizes the brute-force oracle and the frozen reference do not reach.

Every quantity that crosses instances is an integer count (set sizes,
occurrences, true positives, the initialization's Gram entries), and each
instance's truth depends only on its own ballots and the parameters.  So
duplicating every instance doubles the numerator and the denominator of every
update, which is exact, and permuting the instances changes no count.

Voters are exchangeable too, over one AMLE iteration from equal starting
rates and in the baselines: with equal weights every truth score adds the
same nonzero terms in the same order, and every rate is a ratio of integer
counts.  Later iterations and the distance-based init sum over voters in
index order, so a voter permutation may move their last bits.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from approvalmle import (
    AmleConfig,
    Bounds,
    Profile,
    anna_karenina_init,
    majority_rule,
    modal_rule,
    run_amle,
    uniform_init,
)
from approvalmle.synth import SynthSpec, sample_dataset
from approvalmle.truth_mle import _STACK_LIMIT

CONFIG = AmleConfig(max_iterations=30)


@st.composite
def cases(draw):
    """A random profile and bounds that force no truth set empty or full."""
    m = draw(st.integers(2, 10))
    n = draw(st.integers(2, 12))
    length = draw(st.integers(1, 25))
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profile = Profile(
        [f"a{j}" for j in range(m)],
        [f"v{i}" for i in range(n)],
        [f"z{z}" for z in range(length)],
        rng.random((length, n, m)) < density,
    )
    lower = draw(st.integers(0, m - 1))
    return profile, Bounds(lower, draw(st.integers(max(lower, 1), m)))


def _estimate(profile, bounds):
    """The distance-based init and the exact-rule run from it, or the type
    and message of the error either raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            init = anna_karenina_init(profile)
            return init, run_amle(profile, bounds, init, CONFIG)
        except ValueError as exc:
            return type(exc), str(exc)


def assert_relation(profile, bounds, order):
    """Estimating on the instances ``order`` of ``profile`` gives the same
    init, iteration count and parameters, and the truths in that order."""
    derived = Profile(
        profile.alternative_ids,
        profile.voters,
        [f"z{k}" for k in range(len(order))],
        profile.approvals[order],
    )
    base, other = _estimate(profile, bounds), _estimate(derived, bounds)
    if isinstance(base[0], type):
        assert other == base
        return
    (init, result), (init_other, result_other) = base, other
    for name in ("p", "q", "t"):
        np.testing.assert_array_equal(getattr(init_other, name), getattr(init, name))
        np.testing.assert_array_equal(
            getattr(result_other.params, name), getattr(result.params, name)
        )
    assert result_other.iterations == result.iterations
    np.testing.assert_array_equal(result_other.truth_array, result.truth_array[order])


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_duplicating_every_instance_keeps_the_estimate(case):
    profile, bounds = case
    assert_relation(profile, bounds, np.tile(np.arange(profile.num_instances), 2))


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_permuting_instances_permutes_the_truths(case, data):
    profile, bounds = case
    order = data.draw(st.permutations(range(profile.num_instances)), label="order")
    assert_relation(profile, bounds, np.array(order))


def test_duplication_across_the_stacking_limit():
    # the profile's truth step stacks all voter terms; its doubled copy's
    # adds them one voter at a time
    bounds = Bounds(1, 3)
    profile, _ = sample_dataset(SynthSpec.homogeneous(5, 20, 400, bounds, 0.7, 0.3, 11))
    assert profile.approvals.size <= _STACK_LIMIT < 2 * profile.approvals.size
    assert_relation(profile, bounds, np.tile(np.arange(profile.num_instances), 2))


def _permuted_voters(profile, data):
    order = np.array(data.draw(st.permutations(range(profile.num_voters)), label="order"))
    derived = Profile(
        profile.alternative_ids,
        [profile.voters[i] for i in order],
        profile.instance_ids,
        profile.approvals[:, order],
    )
    return order, derived


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_permuting_voters_keeps_the_baselines(case, data):
    profile, bounds = case
    _, derived = _permuted_voters(profile, data)
    assert modal_rule(derived).tobytes() == modal_rule(profile).tobytes()
    assert majority_rule(derived, bounds).tobytes() == majority_rule(profile, bounds).tobytes()


def _one_iteration(profile, bounds):
    """One exact-rule iteration from equal starting rates, or the type and
    message of the error it raises."""
    init = uniform_init(profile.num_voters, profile.num_alternatives)
    try:
        return run_amle(profile, bounds, init, AmleConfig(max_iterations=1))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_permuting_voters_permutes_one_iteration_from_uniform_init(case, data):
    profile, bounds = case
    order, derived = _permuted_voters(profile, data)
    base, other = _one_iteration(profile, bounds), _one_iteration(derived, bounds)
    if isinstance(base, tuple):
        assert other == base
        return
    assert other.truth_array.tobytes() == base.truth_array.tobytes()
    assert other.params.t.tobytes() == base.params.t.tobytes()
    for name in ("p", "q"):
        assert getattr(other.params, name).tobytes() == getattr(base.params, name)[order].tobytes()
