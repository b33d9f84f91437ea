"""Differential tests: the dense-array package against the frozen per-ballot
reference in ``reference_seed``.

Whole AMLE trajectories, the distance-based initialization and the accuracy
metrics must agree exactly; log-likelihoods, which the two sides sum in
different orders, agree within 1e-12 relative.
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
    CardinalityDP,
    ParamVector,
    Profile,
    ThieleWeights,
    anna_karenina_init,
    approval_matrix,
    cardinality_mass,
    estimate_truth,
    explain_truth,
    hamming_accuracy,
    harmonic_accuracy,
    majority_rule,
    modal_rule,
    prior_logprob,
    random_init,
    run_amle,
    subset_accuracy,
    sweep_inclusion_priors,
    total_loglik,
    truth_sets,
    uniform_init,
)
from approvalmle.likelihood import IMPOSSIBLE, instance_loglik
from approvalmle.truth_mle import _STACK_LIMIT, _board
from conftest import counts_of, voterless_counts

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
        total_loglik(profile, counts_of(profile, truths), params, bounds),
        ref.total_loglik(profile, truths, params, bounds),
    )
    for ballots, instance, truth in zip(profile.approvals, profile.instances, truths):
        assert _close(
            instance_loglik(ballots, truth, params, bounds),
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
    for ballots, instance in zip(profile.approvals, profile.instances):
        got = explain_truth(ballots, params, bounds)
        want = ref.estimate_truth(instance, params, bounds)
        assert got.chosen == want.chosen
        assert got.admissible_k == want.admissible_k
        assert got.partition == want.partition
        np.testing.assert_array_equal(got.scores, want.scores)


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_whole_profile_truth_step_matches_reference(data):
    profile = data.draw(profiles())
    n, m = profile.num_voters, profile.num_alternatives
    if data.draw(st.booleans()):
        profile = Profile(
            profile.alternative_ids,
            profile.voters,
            profile.instance_ids[:1],
            profile.approvals[:1],
        )
    bounds = data.draw(
        st.one_of(st.just(Bounds(0, 0)), st.just(Bounds(m, m)), bounds_for(m))
    )
    if data.draw(st.booleans()):
        rate = st.sampled_from(EDGE_RATES)
        params = uniform_init(n, m, data.draw(rate), data.draw(rate), data.draw(rate))
    else:
        params = data.draw(params_for(n, m))
    reference = [ref.estimate_truth(inst, params, bounds) for inst in profile.instances]
    got = estimate_truth(profile, params, bounds)
    assert truth_sets(got) == tuple(est.chosen for est in reference)
    scores, _ = _board(profile.by_voter, params)
    np.testing.assert_array_equal(scores, np.array([est.scores for est in reference]))


def test_whole_profile_scores_with_anti_expert_and_even_priors():
    # t = 0.5 puts every prior log-odds at exactly 0.0, and voter v2 is an
    # anti-expert (p < q): its weight is negative, so where it does not
    # approve the whole-profile step adds -0.0.  Alternative c on z1 and a on
    # z2 are approved by nobody and must keep the score +0.0.
    profile = Profile.build(
        ["a", "b", "c"],
        ["v1", "v2", "v3"],
        [[{0}, {1}, {0, 1}], [set(), {1, 2}, {2}], [{0, 1, 2}, set(), {0, 1, 2}]],
    )
    params = ParamVector([0.8, 0.3, 0.7], [0.3, 0.8, 0.4], [0.5] * 3)
    assert ref.voter_weights(params)[1] < 0
    scores, _ = _board(profile.by_voter, params)
    want = np.array(
        [ref.estimate_truth(inst, params, Bounds(1, 2)).scores for inst in profile.instances]
    )
    np.testing.assert_array_equal(scores, want)
    # bit for bit, down to the sign of each zero
    assert scores.tobytes() == want.tobytes()
    assert scores[0, 2] == 0.0 and not np.signbit(scores[0, 2])


def test_one_cell_scores_add_voters_in_order():
    # With one instance of one alternative, a stacked reduction would run along
    # numpy's contiguous axis, where it sums pairwise (eight partial sums from
    # eight terms on); the truth step must still add voter by voter.
    rng = np.random.default_rng(18)
    n = 12
    for _ in range(30):
        params = ParamVector(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n), [0.3])
        profile = Profile.build(["a"], [f"v{i}" for i in range(n)], [[{0}] * n])
        want = ref.estimate_truth(profile.instances[0], params, Bounds(0, 1)).scores
        scores, _ = _board(profile.by_voter, params)
        assert scores.tobytes() == np.asarray([want]).tobytes()
        got = explain_truth(profile.approvals[0], params, Bounds(0, 1))
        assert got.scores.tobytes() == np.asarray(want).tobytes()


def test_truth_step_above_the_stacking_limit_matches_reference():
    # more ballot cells than truth_mle stacks at once: voter terms are added
    # one voter at a time instead, to the same bits
    rng = np.random.default_rng(19)
    length, n, m = 70, 200, 5
    assert length * n * m > _STACK_LIMIT
    approvals = rng.random((length, n, m)) < 0.4
    profile = Profile([f"a{j}" for j in range(m)], [f"v{i}" for i in range(n)],
                      [f"z{z}" for z in range(length)], approvals)
    params = ParamVector(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n),
                         rng.uniform(0.05, 0.95, m))
    bounds = Bounds(1, 3)
    reference = [ref.estimate_truth(inst, params, bounds) for inst in profile.instances]
    assert truth_sets(estimate_truth(profile, params, bounds)) == tuple(
        est.chosen for est in reference
    )
    scores, _ = _board(profile.by_voter, params)
    assert scores.tobytes() == np.array([est.scores for est in reference]).tobytes()


@st.composite
def tied_profiles(draw):
    """Profiles whose ballots repeat a few distinct ones, so that exact
    ballots and approval counts tie often.  Dealt in turn, a pool of two
    ballots over an even number of voters puts approval counts at exactly
    n/2, the majority's edge."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    length = draw(st.integers(1, 10))
    pool = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=3))
    if draw(st.booleans()):
        ballots = [[pool[i % len(pool)] for i in range(n)]] * length
    else:
        ballots = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(length)]
    return Profile.build([f"a{j}" for j in range(m)], [f"v{i}" for i in range(n)], ballots)


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_baselines_match_reference(data):
    # ``profiles`` draws all-empty ballots at density 0.0
    profile = data.draw(st.one_of(profiles(), tied_profiles()))
    m = profile.num_alternatives
    assert truth_sets(modal_rule(profile)) == tuple(
        ref.modal_rule(inst) for inst in profile.instances
    )
    for bounds in (Bounds(0, 0), Bounds(m, m), data.draw(bounds_for(m))):
        assert truth_sets(majority_rule(profile, bounds)) == tuple(
            ref.majority_rule(inst, bounds, m) for inst in profile.instances
        )


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_metrics_match_reference_exactly(data):
    # equal scores summed in one order give equal means, bit for bit; the
    # zero steps in custom weights give nonempty sets a self-score of 0
    m = data.draw(st.integers(1, 8))
    length = data.draw(st.integers(1, 20))
    sets = st.frozensets(st.integers(0, m - 1))
    estimates = tuple(data.draw(sets) for _ in range(length))
    truths = tuple(data.draw(sets) for _ in range(length))
    steps = st.one_of(st.sampled_from((0.0, 0.1, 1 / 3, 1.0)), st.floats(0.0, 2.0))
    weights = data.draw(
        st.one_of(
            st.none(),
            st.lists(steps, min_size=m, max_size=m).map(
                lambda rises: ThieleWeights(np.concatenate([[0.0], np.cumsum(rises)]))
            ),
        )
    )
    est, tru = approval_matrix(estimates, m), approval_matrix(truths, m)
    assert hamming_accuracy(est, tru) == ref.hamming_accuracy(estimates, truths, m)
    assert subset_accuracy(est, tru) == ref.subset_accuracy(estimates, truths)
    for normalized in (False, True):
        assert harmonic_accuracy(est, tru, weights, normalized) == ref.harmonic_accuracy(
            estimates, truths, m, weights, normalized
        )


def sweep_bounds(m):
    """Bounds on m alternatives, often with u < m - 1, which truncates the
    counting rows."""
    capped = st.integers(0, max(m - 2, 0)).flatmap(
        lambda upper: st.integers(0, upper).map(lambda lower: Bounds(lower, upper))
    )
    return st.one_of(
        st.just(Bounds(0, m)),
        st.just(Bounds(m - 1, m - 1)),
        st.just(Bounds(m - 1, m)),
        capped,
        bounds_for(m),
    )


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_counting_rows_match_reference_exactly(data):
    # the masses are sums over the counting rows, so equal rows and one
    # summation order give equal masses, bit for bit
    m = data.draw(st.integers(1, 70))
    bounds = data.draw(sweep_bounds(m))
    t = data.draw(rates(m))
    assert cardinality_mass(t, bounds) == ref.cardinality_mass(t, bounds)
    cap = data.draw(st.integers(0, m + 1))
    np.testing.assert_array_equal(CardinalityDP.build(t, cap).table[-1], ref._dp_last_row(t, cap))


@settings(settings.get_profile("differential"))
@given(data=st.data())
def test_sweep_inclusion_priors_matches_reference_exactly(data):
    # up to wide's shape (m=60, bounds [3, 12]), where u < m - 1 truncates
    # the counting rows
    m = data.draw(st.integers(1, 70))
    length = data.draw(st.integers(1, 40))
    bounds = data.draw(sweep_bounds(m))
    density = data.draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 0.9, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    truths = tuple(
        frozenset(np.flatnonzero(rng.random(m) < density).tolist()) for _ in range(length)
    )
    t = data.draw(rates(m))
    epsilon = data.draw(st.sampled_from((1e-4, 1e-2)))
    counts = voterless_counts(truths, m)
    for rule in ("exact", "legacy"):
        got = _outcome(sweep_inclusion_priors, counts, bounds, t, epsilon, rule)
        want = _outcome(ref.sweep_inclusion_priors, truths, bounds, t, epsilon, rule)
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1:] == want[1:]
        else:
            np.testing.assert_array_equal(got[1], want[1])
