"""Differential tests: the dense-array package against the frozen per-ballot
reference in ``reference_seed``.

Whole AMLE trajectories and the distance-based initialization must agree
exactly; log-likelihoods, which the two sides sum in different orders, agree
within 1e-12 relative.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_seed as ref
from approvalmle import (
    AmleConfig,
    Bounds,
    ParamVector,
    Profile,
    anna_karenina_init,
    estimate_truth,
    prior_logprob,
    random_init,
    run_amle,
    total_loglik,
    uniform_init,
)
from approvalmle.likelihood import IMPOSSIBLE, instance_loglik

#: Rates on and next to the default clamp, and coarse values that make many
#: voters and alternatives tie.
EDGE_RATES = (1e-4, 2e-4, 0.25, 0.4, 0.5, 0.6, 0.75, 1 - 2e-4, 1 - 1e-4)

settings.register_profile("differential", max_examples=200, deadline=None)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def profiles(draw, min_voters=1):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(min_voters, 12))
    length = draw(st.integers(1, 10))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ballots = [
        [frozenset(np.flatnonzero(rng.random(m) < density).tolist()) for _ in range(n)]
        for _ in range(length)
    ]
    return Profile.build([f"a{j}" for j in range(m)], [f"v{i}" for i in range(n)], ballots)


@st.composite
def bounds_for(draw, m, forcing=True):
    """Bounds on m alternatives; ``forcing=False`` leaves out [0, 0] and
    [m, m], which force every truth set empty or full."""
    lower = draw(st.integers(0, m if forcing else m - 1))
    return Bounds(lower, draw(st.integers(lower if forcing else max(lower, 1), m)))


@st.composite
def rates(draw, size):
    """Per-entry rates, all equal (ties) or drawn independently."""
    if draw(st.booleans()):
        return np.full(size, draw(st.sampled_from(EDGE_RATES)))
    return np.array(
        draw(
            st.lists(
                st.one_of(st.sampled_from(EDGE_RATES), st.floats(1e-4, 1 - 1e-4)),
                min_size=size,
                max_size=size,
            )
        )
    )


@st.composite
def params_for(draw, n, m):
    return ParamVector(draw(rates(n)), draw(rates(n)), draw(rates(m)))


def _outcome(fn, *args):
    """Call ``fn``; return ``("ok", value)`` or ``("error", type, message)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            return ("ok", fn(*args))
        except ValueError as exc:
            return ("error", type(exc), str(exc))


def _assert_same_params(a: ParamVector, b: ParamVector):
    np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(a.q, b.q)
    np.testing.assert_array_equal(a.t, b.t)


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_run_amle_trajectory_matches_reference(data):
    profile = data.draw(profiles(min_voters=2))
    n, m = profile.num_voters, profile.num_alternatives
    bounds = data.draw(bounds_for(m, forcing=False))
    t0 = data.draw(st.sampled_from(EDGE_RATES))
    kind = data.draw(st.sampled_from(("uniform", "anna-karenina", "random")))
    if kind == "uniform":
        p0, q0 = data.draw(st.sampled_from(EDGE_RATES)), data.draw(st.sampled_from(EDGE_RATES))
        init = uniform_init(n, m, p0, q0, t0)
    elif kind == "random":
        init = random_init(n, m, data.draw(st.integers(0, 1000)), t0)
    else:
        init = _outcome(anna_karenina_init, profile, t0)[1]
    config = AmleConfig(
        tolerance=data.draw(st.sampled_from((1e-5, 1e-9))),
        max_iterations=data.draw(st.integers(1, 25)),
        freeze_priors=data.draw(st.booleans()),
        prior_update=data.draw(st.sampled_from(("exact", "legacy"))),
    )

    got = _outcome(run_amle, profile, bounds, init, config)
    want = _outcome(ref.run_amle, profile, bounds, init, config)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    got, want = got[1], want[1]
    assert got.truths == want.truths
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    _assert_same_params(got.params, want.params)
    assert len(got.trace) == len(want.trace)
    for mine, theirs in zip(got.trace, want.trace):
        assert mine.iteration == theirs.iteration
        assert mine.truths == theirs.truths
        _assert_same_params(mine.params, theirs.params)
        assert mine.param_delta == theirs.param_delta
        assert _close(mine.loglik_truth_step, theirs.loglik_truth_step)
        assert _close(mine.loglik, theirs.loglik)


@settings(settings.get_profile("differential"))
@given(profile=profiles(min_voters=2), t0=st.sampled_from(EDGE_RATES))
def test_anna_karenina_init_matches_reference_exactly(profile, t0):
    with warnings.catch_warnings(record=True) as mine:
        warnings.simplefilter("always")
        got = anna_karenina_init(profile, t0)
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        want = ref.anna_karenina_init(profile, t0)
    assert len(mine) == len(theirs)
    _assert_same_params(got, want)


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_logliks_match_reference(data):
    profile = data.draw(profiles())
    n, m = profile.num_voters, profile.num_alternatives
    bounds = data.draw(bounds_for(m))
    params = data.draw(params_for(n, m))
    truths = tuple(
        frozenset(data.draw(st.sets(st.integers(0, m - 1), min_size=bounds.lower, max_size=bounds.upper)))
        for _ in range(profile.num_instances)
    )
    assert _close(
        total_loglik(profile, truths, params, bounds),
        ref.total_loglik(profile, truths, params, bounds),
    )
    for instance, truth in zip(profile.instances, truths):
        assert _close(
            instance_loglik(instance, truth, params, bounds),
            ref.instance_loglik(instance, truth, params, bounds),
        )
        assert _close(
            prior_logprob(truth, params.t, bounds), ref.prior_logprob(truth, params.t, bounds)
        )
    if bounds.upper < m:
        oversized = frozenset(range(bounds.upper + 1))
        assert prior_logprob(oversized, params.t, bounds) is IMPOSSIBLE


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_truth_step_matches_reference_exactly(data):
    profile = data.draw(profiles())
    n, m = profile.num_voters, profile.num_alternatives
    bounds = data.draw(bounds_for(m))
    params = data.draw(params_for(n, m))
    for instance in profile.instances:
        got = estimate_truth(instance, params, bounds)
        want = ref.estimate_truth(instance, params, bounds)
        assert got.chosen == want.chosen
        assert got.admissible_k == want.admissible_k
        assert got.partition == want.partition
        np.testing.assert_array_equal(got.scores, want.scores)
