"""Alternating maximum-likelihood estimation of truths and parameters.

Each iteration re-estimates every instance's truth set given the current
parameters (one whole-profile call), counts that truth array against the
ballots (``TruthCounts.count``), then updates the voter rates (p, q) and,
unless priors are frozen, sweeps the inclusion priors t coordinate by
coordinate.  When the truth array equals the previous iteration's, the
counts are the previous ones, and so are the log-likelihood before the update
(the previous step's ``loglik``: same counts, same parameters) and (p, q),
which depend on the counts alone; only the sweep and the log-likelihood after
it are computed again.  The log-likelihoods take the prior normalizer of
each t from the sweep that produced it, which reads it off its last counting
row, so a run builds one normalizer row, for the initial priors; the loop
checks no value that a ``ParamVector`` holds again.  The trace's
log-likelihoods are computed the first time they are read (``AmleStep``):
the loop itself makes the checks ``total_loglik`` would make (truth set
sizes within the bounds, a swept normalizer that did not underflow) where
the call would make them, and computes only the last step's ``loglik``.
Under the default ``exact`` prior update every step maximizes the total
likelihood in its own block, so the likelihood never decreases and stopping
early still yields a usable, likelihood-improved estimate; the ``legacy`` update trades that
guarantee for compatibility with previously circulated AMLE runs (see
``sweep_inclusion_priors``).

The parameter vector is packed as (p_1..p_n, q_1..q_n, t_1..t_m) and the stop
rule compares successive vectors in the sup norm.  Bounds with ``upper == 0``
decide every truth set (empty), so ``run_amle``, for every caller, returns the
initial parameters after 0 iterations without running the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import likelihood
from .likelihood import total_loglik
from .model import (
    DEFAULT_EPSILON_CLAMP,
    Bounds,
    ParamVector,
    Profile,
    TruthCounts,
    _is_real,
    read_only,
    require_epsilon,
    require_integer,
    truth_sets,
    validate_profile,
)
from .priors import _require_mass, _sweep, require_rule
# unused here; kept because perfbench's tracer wraps this name on this module
from .priors import sweep_inclusion_priors  # noqa: F401
from .reliability import update_reliabilities
from .truth_mle import estimate_truth


@dataclass(frozen=True)
class AmleConfig:
    """Loop controls.

    ``tolerance`` bounds the sup-norm parameter change at which iteration
    stops; ``max_iterations`` caps the loop because floating point can jitter
    below tolerance scale even though exact arithmetic would reach an exact
    fixed point.  ``freeze_priors`` keeps t at its initial value, for
    single-instance problems where prior parameters cannot be estimated.
    """

    tolerance: float = 1e-5
    max_iterations: int = 100
    freeze_priors: bool = False
    epsilon_clamp: float = DEFAULT_EPSILON_CLAMP
    prior_update: str = "exact"

    def __post_init__(self):
        tolerance = self.tolerance
        if not (_is_real(tolerance) and math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
        require_integer(self.max_iterations, "max_iterations", 1)
        if not isinstance(self.freeze_priors, (bool, np.bool_)):
            raise ValueError(f"freeze_priors must be True or False, got {self.freeze_priors!r}")
        require_epsilon(self.epsilon_clamp, "epsilon_clamp")
        require_rule(self.prior_update)


class _TruthSets:
    @property
    def truths(self) -> tuple:
        """One frozenset per instance, from ``truth_array``."""
        return truth_sets(self.truth_array)


class _Loglik:
    """``total_loglik`` of one set of arguments, called the first time the
    value is read (``float``) and kept; the arguments are dropped then.

    The call looks ``total_loglik`` up on this module when it runs, so a
    wrapper installed there sees the calls made while it is installed."""

    __slots__ = ("_args", "_value")

    def __init__(self, profile, counts, params, bounds, prior_mass):
        self._args = (profile, counts, params, bounds, prior_mass)
        self._value = None

    def __float__(self) -> float:
        if self._args is not None:
            profile, counts, params, bounds, prior_mass = self._args
            self._value = total_loglik(profile, counts, params, bounds, prior_mass=prior_mass)
            self._args = None
        return self._value


@dataclass(frozen=True, eq=False)
class AmleStep(_TruthSets):
    """One iteration's record: parameters after the update, the truth array,
    and the total log-likelihood before (``loglik_truth_step``) and after
    (``loglik``) the parameter update.

    Each log-likelihood is given as a float or as a value ``run_amle``
    computes the first time it is read; reading it returns a float either
    way.  When ``truth_array`` equals the previous step's,
    ``loglik_truth_step`` is that step's ``loglik``, one value computed at
    most once, and (p, q) are its (p, q), reused bit for bit rather than
    recomputed from the same counts."""

    iteration: int
    params: ParamVector
    truth_array: np.ndarray
    _loglik_truth_step: object
    _loglik: object
    param_delta: float

    @property
    def loglik_truth_step(self) -> float:
        return float(self._loglik_truth_step)

    @property
    def loglik(self) -> float:
        return float(self._loglik)


@dataclass(frozen=True, eq=False)
class AmleResult(_TruthSets):
    truth_array: np.ndarray
    params: ParamVector
    trace: tuple
    converged: bool
    iterations: int


def _require_sizes(profile: Profile, counts: TruthCounts, bounds: Bounds) -> None:
    """Raise, naming the first instance, as ``total_loglik`` does, unless
    every truth set's size lies within ``bounds``."""
    sizes = counts.sizes
    outside = np.flatnonzero((sizes < bounds.lower) | (sizes > bounds.upper))
    if outside.size:
        z = outside[0]
        raise ValueError(
            f"truth set of instance {profile.instance_ids[z]!r} has size {sizes[z]} "
            f"outside bounds [{bounds.lower}, {bounds.upper}]"
        )


def run_amle(
    profile: Profile,
    bounds: Bounds,
    init: ParamVector,
    config: AmleConfig = AmleConfig(),
) -> AmleResult:
    """Run the alternating estimation loop from the given initial parameters.

    Deterministic: identical inputs produce bit-identical results.  Raises
    ValueError on an invalid profile (``validate_profile``) or initial
    parameters sized for another profile (``ParamVector.require_fit``).  When
    ``bounds.upper == 0`` it then returns at once: the read-only all-empty
    truth array, ``params`` equal to ``init``, ``trace=()``, converged after 0
    iterations.  Otherwise it propagates ``DegenerateEstimate`` from the
    reliability update when the estimated truths are all empty or all full
    (for example when the bounds force every truth set to be full).
    """
    validate_profile(profile, bounds)
    init.require_fit(profile.approvals.shape[1:])
    if bounds.upper == 0:
        # the bounds alone decide every truth set: nothing to alternate over
        empty = read_only(np.zeros((profile.num_instances, profile.num_alternatives), bool))
        return AmleResult(empty, init, trace=(), converged=True, iterations=0)

    params = init
    # the initial priors' normalizer; each sweep hands on the next one (looked
    # up on likelihood, where perfbench's tracer wraps it)
    prior_mass = likelihood.cardinality_mass(params.t, bounds)
    steps = []
    counts = None
    converged = False
    iteration = 0

    while iteration < config.max_iterations and not converged:
        iteration += 1
        truths = estimate_truth(profile, params, bounds)
        if counts is not None and np.array_equal(truths, counts.truths):
            loglik_truth_step = steps[-1]._loglik
            p_hat, q_hat = params.p, params.q
        else:
            counts = TruthCounts.count(profile.approvals, truths)
            _require_sizes(profile, counts, bounds)
            loglik_truth_step = _Loglik(profile, counts, params, bounds, prior_mass)
            p_hat, q_hat = update_reliabilities(profile, counts, config.epsilon_clamp)
        if config.freeze_priors:
            t_hat = params.t
        else:
            t_hat, prior_mass = _sweep(
                counts, bounds, params.t, config.epsilon_clamp, config.prior_update
            )
        updated = ParamVector(p_hat, q_hat, t_hat)

        delta = float(np.maximum.reduce(np.abs(updated.packed() - params.packed())))
        _require_mass(prior_mass, bounds)
        loglik = _Loglik(profile, counts, updated, bounds, prior_mass)
        steps.append(
            AmleStep(iteration, updated, truths, loglik_truth_step, loglik, delta)
        )
        params = updated
        converged = delta <= config.tolerance

    float(loglik)  # the log-likelihood at the returned truths and params
    return AmleResult(
        truth_array=truths,
        params=params,
        trace=tuple(steps),
        converged=converged,
        iterations=iteration,
    )
