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
checks no value that a ``ParamVector`` holds again.  Under the default
``exact`` prior update every step maximizes the total likelihood in its own
block, so the likelihood never decreases and stopping early still yields a
usable, likelihood-improved estimate; the ``legacy`` update trades that
guarantee for compatibility with previously circulated AMLE runs (see
``sweep_inclusion_priors``).

The parameter vector is packed as (p_1..p_n, q_1..q_n, t_1..t_m) and the stop
rule compares successive vectors in the sup norm.
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
    require_epsilon,
    require_integer,
    truth_sets,
    validate_profile,
)
from .priors import _sweep, require_rule
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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        require_integer(self.max_iterations, "max_iterations")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        require_epsilon(self.epsilon_clamp, "epsilon_clamp")
        require_rule(self.prior_update)


class _TruthSets:
    @property
    def truths(self) -> tuple:
        """One frozenset per instance, from ``truth_array``."""
        return truth_sets(self.truth_array)


@dataclass(frozen=True, eq=False)
class AmleStep(_TruthSets):
    """One iteration's record: parameters after the update, the truth array,
    and the total log-likelihood before (``loglik_truth_step``) and after
    (``loglik``) the parameter update.

    When ``truth_array`` equals the previous step's, ``loglik_truth_step`` is
    that step's ``loglik`` and (p, q) are its (p, q), reused bit for bit
    rather than recomputed from the same counts."""

    iteration: int
    params: ParamVector
    truth_array: np.ndarray
    loglik_truth_step: float
    loglik: float
    param_delta: float


@dataclass(frozen=True, eq=False)
class AmleResult(_TruthSets):
    truth_array: np.ndarray
    params: ParamVector
    trace: tuple
    converged: bool
    iterations: int


def run_amle(
    profile: Profile,
    bounds: Bounds,
    init: ParamVector,
    config: AmleConfig = AmleConfig(),
) -> AmleResult:
    """Run the alternating estimation loop from the given initial parameters.

    Deterministic: identical inputs produce bit-identical results.  Raises
    ValueError on an invalid profile (``validate_profile``) or initial
    parameters sized for another profile (``ParamVector.require_fit``), and
    propagates ``DegenerateEstimate`` from the reliability update when the
    estimated truths are all empty or all full (for example when the bounds
    force every truth set to be full).
    """
    validate_profile(profile, bounds)
    init.require_fit(profile.approvals.shape[1:])

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
            loglik_truth_step = steps[-1].loglik
            p_hat, q_hat = params.p, params.q
        else:
            counts = TruthCounts.count(profile.approvals, truths)
            loglik_truth_step = total_loglik(
                profile, counts, params, bounds, prior_mass=prior_mass
            )
            p_hat, q_hat = update_reliabilities(profile, counts, config.epsilon_clamp)
        if config.freeze_priors:
            t_hat = params.t
        else:
            t_hat, prior_mass = _sweep(
                counts, bounds, params.t, config.epsilon_clamp, config.prior_update
            )
        updated = ParamVector(p_hat, q_hat, t_hat)

        delta = float(np.maximum.reduce(np.abs(updated.packed() - params.packed())))
        loglik = total_loglik(profile, counts, updated, bounds, prior_mass=prior_mass)
        steps.append(
            AmleStep(iteration, updated, truths, loglik_truth_step, loglik, delta)
        )
        params = updated
        converged = delta <= config.tolerance

    return AmleResult(
        truth_array=truths,
        params=params,
        trace=tuple(steps),
        converged=converged,
        iterations=iteration,
    )
