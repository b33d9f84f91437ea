"""Frozen per-ballot reference implementation of the AMLE layers.

These are the original implementations that walk frozenset ballots one by
one: the truth step, the log-likelihoods, the reliability update, the
cardinality DP with the inclusion-prior sweep, the distance-based
initialization, the alternating loop that strings them together, the
baselines and the accuracy metrics over frozenset truth sets.  The
package computes the same quantities on dense arrays; the differential tests
compare the two.

Do not optimise or refactor this module.  Its value is that it stays the
slow, obvious version: a change here would silently move the reference that
the package is checked against.  Only the plain data types (``Bounds``,
``ParamVector``, ``Profile``, ``Instance``, ``ThieleWeights``, the loop's
``AmleConfig`` and the result records, which take their truths through
``approval_matrix``), ``DEFAULT_EPSILON_CLAMP``, ``validate_profile``,
``require_open_unit`` and the ``DegenerateEstimate`` error type come from the
package.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from approvalmle.amle import AmleConfig, AmleResult, AmleStep
from approvalmle.model import (
    DEFAULT_EPSILON_CLAMP,
    Bounds,
    ParamVector,
    Profile,
    TruthEstimate,
    approval_matrix,
    require_open_unit,
    validate_profile,
)
from approvalmle.reliability import DegenerateEstimate

TIE_TOLERANCE = 1e-9


def clamp_unit(values, epsilon: float = DEFAULT_EPSILON_CLAMP) -> np.ndarray:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    return np.clip(np.asarray(values, dtype=float), epsilon, 1.0 - epsilon)


# -- priors ------------------------------------------------------------------


def _require_open_unit(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.size and not np.all((t > 0.0) & (t < 1.0)):
        raise ValueError("inclusion probabilities must lie strictly in (0, 1)")
    return t


def _dp_last_row(t: np.ndarray, cap: int) -> np.ndarray:
    m = len(t)
    cap = min(cap, m)
    table = np.zeros((m + 1, cap + 1))
    table[0, 0] = 1.0
    for j, prob in enumerate(t, start=1):
        row = table[j - 1]
        table[j, 1:] = row[1:] * (1.0 - prob) + row[:-1] * prob
        table[j, 0] = row[0] * (1.0 - prob)
    return table[-1]


def _interval_mass(t: np.ndarray, lower: int, upper: int) -> float:
    m = len(t)
    upper = min(upper, m)
    lower = max(lower, 0)
    if lower > upper:
        return 0.0
    if lower == 0 and upper == m:
        return 1.0
    return float(_dp_last_row(t, upper)[lower : upper + 1].sum())


def cardinality_mass(t, bounds: Bounds) -> float:
    t = _require_open_unit(t)
    return _interval_mass(t, bounds.lower, bounds.upper)


def mass_given_included(j: int, t, bounds: Bounds) -> float:
    t = _require_open_unit(t)
    if bounds.upper < 1:
        raise ValueError(
            f"alternative {j} can never be included under upper bound {bounds.upper}"
        )
    rest = np.delete(t, j)
    return _interval_mass(rest, max(bounds.lower - 1, 0), bounds.upper - 1)


def mass_given_excluded(j: int, t, bounds: Bounds) -> float:
    t = _require_open_unit(t)
    if bounds.lower > len(t) - 1:
        raise ValueError(
            f"alternative {j} can never be excluded under lower bound {bounds.lower}"
        )
    rest = np.delete(t, j)
    return _interval_mass(rest, bounds.lower, min(bounds.upper, len(t) - 1))


def update_inclusion_prior(j, truths, bounds, t, epsilon=DEFAULT_EPSILON_CLAMP, rule="exact"):
    t = _require_open_unit(t)
    length = len(truths)
    occ = sum(1 for truth in truths if j in truth)
    if occ == 0:
        raw = 0.0
    elif occ == length:
        raw = 1.0
    else:
        a_in = mass_given_included(j, t, bounds)
        a_out = mass_given_excluded(j, t, bounds)
        if rule == "exact":
            raw = occ * a_out / ((length - occ) * a_in + occ * a_out)
        else:
            raw = occ * a_in / ((length - occ) * a_out + occ * a_in)
    return float(clamp_unit(raw, epsilon))


def sweep_inclusion_priors(truths, bounds, t, epsilon=DEFAULT_EPSILON_CLAMP, rule="exact"):
    current = np.array(t, dtype=float)
    for j in range(len(current)):
        current[j] = update_inclusion_prior(j, truths, bounds, current, epsilon, rule)
    return current


# -- likelihood --------------------------------------------------------------


def _check_rate(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")


def ballot_loglik(ballot, truth, p_i: float, q_i: float, m: int) -> float:
    _check_rate("p_i", p_i)
    _check_rate("q_i", q_i)
    truth = frozenset(truth)
    ballot = frozenset(ballot)
    true_pos = len(ballot & truth)
    false_pos = len(ballot) - true_pos
    false_neg = len(truth) - true_pos
    true_neg = m - true_pos - false_pos - false_neg
    return (
        true_pos * math.log(p_i)
        + false_pos * math.log(q_i)
        + false_neg * math.log(1.0 - p_i)
        + true_neg * math.log(1.0 - q_i)
    )


def prior_logprob(candidate, t, bounds: Bounds):
    """Log prior of a candidate set, or None when its size is inadmissible."""
    candidate = frozenset(candidate)
    if not bounds.contains(len(candidate)):
        return None
    total = 0.0
    for j, t_j in enumerate(t):
        if not 0.0 < t_j < 1.0:
            raise ValueError(f"t[{j}] must lie strictly in (0, 1), got {t_j}")
        total += math.log(t_j) if j in candidate else math.log(1.0 - t_j)
    return total - math.log(cardinality_mass(t, bounds))


def instance_loglik(instance, truth, params: ParamVector, bounds: Bounds):
    prior = prior_logprob(truth, params.t, bounds)
    if prior is None:
        return None
    m = params.num_alternatives
    total = prior
    for i, ballot in enumerate(instance.ballots):
        total += ballot_loglik(ballot, truth, params.p[i], params.q[i], m)
    return total


def total_loglik(profile: Profile, truths, params: ParamVector, bounds: Bounds) -> float:
    if len(truths) != profile.num_instances:
        raise ValueError(
            f"got {len(truths)} truth sets for {profile.num_instances} instances"
        )
    total = 0.0
    for instance, truth in zip(profile.instances, truths):
        term = instance_loglik(instance, truth, params, bounds)
        if term is None:
            raise ValueError(
                f"truth set of instance {instance.id!r} has size {len(truth)} "
                f"outside bounds [{bounds.lower}, {bounds.upper}]"
            )
        total += term
    return total


# -- truth step --------------------------------------------------------------


def voter_weights(params: ParamVector) -> np.ndarray:
    p, q = params.p, params.q
    return np.log(p) - np.log(q) + np.log(1.0 - q) - np.log(1.0 - p)


def score_ranking(scores) -> list:
    """Alternative indices sorted by (score descending, index ascending)."""
    m = len(scores)
    return sorted(range(m), key=lambda j: (-scores[j], j))


def estimate_truth(instance, params: ParamVector, bounds: Bounds) -> TruthEstimate:
    for name in ("p", "q", "t"):
        require_open_unit(getattr(params, name), name)
    m = params.num_alternatives
    bounds.require_fit(m)
    weights = voter_weights(params)
    scores = np.log(params.t) - np.log(1.0 - params.t)
    for i, ballot in enumerate(instance.ballots):
        for j in ballot:
            scores[j] += weights[i]
    threshold = float(np.sum(np.log(1.0 - params.q) - np.log(1.0 - params.p)))
    diff = scores - threshold
    at = np.abs(diff) <= TIE_TOLERANCE
    above = diff > TIE_TOLERANCE
    k = min(bounds.upper, max(bounds.lower, int(above.sum())))
    chosen = frozenset(score_ranking(scores)[:k])
    split = (
        frozenset(np.flatnonzero(above).tolist()),
        frozenset(np.flatnonzero(at).tolist()),
        frozenset(np.flatnonzero(~(above | at)).tolist()),
    )
    return TruthEstimate(chosen, scores, threshold, split, k)


# -- reliabilities -----------------------------------------------------------


def update_reliabilities(profile: Profile, truths, epsilon=DEFAULT_EPSILON_CLAMP):
    m = profile.num_alternatives
    length = profile.num_instances
    if len(truths) != length:
        raise ValueError(f"got {len(truths)} truth sets for {length} instances")

    total_positive = sum(len(truth) for truth in truths)
    total_negative = length * m - total_positive
    if total_positive == 0:
        raise DegenerateEstimate("every truth set is empty: true-positive rate p is undefined")
    if total_negative == 0:
        raise DegenerateEstimate("every truth set is full: false-positive rate q is undefined")

    n = profile.num_voters
    true_pos = np.zeros(n)
    approvals = np.zeros(n)
    for instance, truth in zip(profile.instances, truths):
        truth = frozenset(truth)
        for i, ballot in enumerate(instance.ballots):
            true_pos[i] += len(ballot & truth)
            approvals[i] += len(ballot)

    p_hat = clamp_unit(true_pos / total_positive, epsilon)
    q_hat = clamp_unit((approvals - true_pos) / total_negative, epsilon)
    return p_hat, q_hat


# -- initialization ----------------------------------------------------------


def jaccard_distance(ballot_a, ballot_b) -> float:
    a = frozenset(ballot_a)
    b = frozenset(ballot_b)
    union = a | b
    if not union:
        return 0.0
    return len(a ^ b) / len(union)


def pooled_ballots(profile: Profile) -> list:
    """Each voter's ballots pooled across instances as (instance, alternative) pairs."""
    pooled = [set() for _ in range(profile.num_voters)]
    for z, instance in enumerate(profile.instances):
        for i, ballot in enumerate(instance.ballots):
            pooled[i].update((z, a) for a in ballot)
    return [frozenset(s) for s in pooled]


def anna_karenina_init(profile: Profile, t0: float = 0.5) -> ParamVector:
    n = profile.num_voters
    m = profile.num_alternatives
    if n < 2:
        raise ValueError("distance-based initialization needs at least 2 voters")
    pooled = pooled_ballots(profile)
    distances = np.array(
        [
            sum(jaccard_distance(pooled[i], pooled[j]) for j in range(n) if j != i)
            for i in range(n)
        ]
    )
    d_max = distances.max()
    d_min = distances.min()
    if d_min == d_max:
        warnings.warn(
            "all voters are equidistant; falling back to uniform initialization",
            stacklevel=2,
        )
        return ParamVector(np.full(n, 0.6), np.full(n, 0.4), np.full(m, t0))

    w_max = n / (n + 1.0)
    w_min = 1.0 / (n + 1.0)
    spread = 1.0 / d_min - 1.0 / d_max
    weights = (w_max - w_min) * (1.0 / distances - 1.0 / d_max) / spread + w_min
    p = np.full(n, 0.5)
    q = (1.0 - np.tanh(weights / 2.0)) / 2.0
    return ParamVector(p, q, np.full(m, t0))


# -- the alternating loop ----------------------------------------------------


def run_amle(profile: Profile, bounds: Bounds, init: ParamVector, config: AmleConfig) -> AmleResult:
    validate_profile(profile, bounds)
    for name in ("p", "q", "t"):
        require_open_unit(getattr(init, name), name)

    params = init
    steps = []
    converged = False
    iteration = 0
    truths = ()
    while iteration < config.max_iterations and not converged:
        iteration += 1
        truths = tuple(
            estimate_truth(instance, params, bounds).chosen
            for instance in profile.instances
        )
        loglik_truth_step = total_loglik(profile, truths, params, bounds)

        p_hat, q_hat = update_reliabilities(profile, truths, config.epsilon_clamp)
        if config.freeze_priors:
            t_hat = params.t
        else:
            t_hat = sweep_inclusion_priors(
                truths, bounds, params.t, config.epsilon_clamp, config.prior_update
            )
        updated = ParamVector(p_hat, q_hat, t_hat)

        delta = float(np.max(np.abs(updated.packed() - params.packed())))
        loglik = total_loglik(profile, truths, updated, bounds)
        steps.append(
            AmleStep(
                iteration, updated, approval_matrix(truths, profile.num_alternatives),
                loglik_truth_step, loglik, delta,
            )
        )
        params = updated
        converged = delta <= config.tolerance

    return AmleResult(
        approval_matrix(truths, profile.num_alternatives), params, tuple(steps), converged,
        iteration,
    )


# -- baselines ---------------------------------------------------------------

from collections import Counter  # noqa: E402

from approvalmle.model import Instance  # noqa: E402


def modal_rule(instance: Instance) -> frozenset:
    """The most frequently cast exact ballot.

    Ties between equally frequent ballots are broken by the lexicographically
    smallest sorted index tuple (so the empty ballot beats everything).
    """
    counts = Counter(instance.ballots)
    best = max(counts.values())
    tied = [ballot for ballot, c in counts.items() if c == best]
    return min(tied, key=lambda s: tuple(sorted(s)))


def approval_counts(instance: Instance, m: int) -> list:
    """Number of approvals per alternative."""
    counts = [0] * m
    for ballot in instance.ballots:
        for j in ballot:
            counts[j] += 1
    return counts


def majority_rule(instance: Instance, bounds: Bounds, m: int) -> frozenset:
    """Label-wise strict majority, fixed up to respect the cardinality bounds.

    Start from {a : approval count > n/2}.  If that set is empty, replace it
    by the single highest-count alternative; if it exceeds the upper bound,
    keep only the top-u by count; if it is still below the lower bound, pad
    with the highest-count excluded alternatives.  All count ties break by
    ascending alternative index.  Padding up to l generalizes the empty-set
    fix-up, which only covers l = 1.
    """
    n = len(instance.ballots)
    counts = approval_counts(instance, m)
    order = sorted(range(m), key=lambda j: (-counts[j], j))

    selected = [j for j in order if counts[j] > n / 2]
    if not selected:
        selected = order[:1]
    if len(selected) > bounds.upper:
        selected = selected[: bounds.upper]
    if len(selected) < bounds.lower:
        padding = [j for j in order if j not in selected]
        selected += padding[: bounds.lower - len(selected)]
    return frozenset(selected)


# -- metrics -----------------------------------------------------------------

from approvalmle.metrics import ThieleWeights  # noqa: E402


def _check_lengths(estimates, truths) -> None:
    if len(estimates) != len(truths):
        raise ValueError(
            f"got {len(estimates)} estimates for {len(truths)} reference sets"
        )
    if not truths:
        raise ValueError("need at least one instance")


def hamming_accuracy(estimates, truths, m: int) -> float:
    """Fraction of (instance, alternative) labels on which the sets agree."""
    _check_lengths(estimates, truths)
    agree = sum(
        m - len(frozenset(est) ^ frozenset(truth))
        for est, truth in zip(estimates, truths)
    )
    return agree / (m * len(truths))


def subset_accuracy(estimates, truths) -> float:
    """Fraction of instances whose estimate matches the reference exactly."""
    _check_lengths(estimates, truths)
    hits = sum(
        frozenset(est) == frozenset(truth) for est, truth in zip(estimates, truths)
    )
    return hits / len(truths)


def harmonic_accuracy(
    estimates,
    truths,
    m: int,
    weights: ThieleWeights | None = None,
    normalized: bool = False,
) -> float:
    """Mean overlap-weighted score, harmonic weights by default."""
    _check_lengths(estimates, truths)
    if weights is None:
        weights = ThieleWeights.harmonic(m)
    w = weights.weights
    if len(w) != m + 1:
        raise ValueError(f"need m + 1 = {m + 1} weights, got {len(w)}")

    total = 0.0
    for est, truth in zip(estimates, truths):
        est = frozenset(est)
        truth = frozenset(truth)
        score = w[len(est & truth)]
        if normalized:
            self_score = w[len(truth)]
            if self_score == 0.0:
                score = 1.0 if est == truth else 0.0
            else:
                score = score / self_score
        total += score
    return total / len(truths)
