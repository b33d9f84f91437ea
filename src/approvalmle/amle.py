"""Alternating maximum-likelihood estimation of truths and parameters.

Each iteration re-estimates every instance's truth set given the current
parameters, then updates the voter rates (p, q) and, unless priors are
frozen, sweeps the inclusion priors t coordinate by coordinate.  Under the
default ``exact`` prior update every step maximizes the total likelihood in
its own block, so the likelihood never decreases and stopping early still
yields a usable, likelihood-improved estimate; the ``legacy`` update trades
that guarantee for compatibility with previously circulated AMLE runs (see
``update_inclusion_prior``).

The parameter vector is packed as (p_1..p_n, q_1..q_n, t_1..t_m) and the stop
rule compares successive vectors in the sup norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import total_loglik
from .model import (
    DEFAULT_EPSILON_CLAMP,
    Bounds,
    GroundTruth,
    ParamVector,
    Profile,
    validate_profile,
)
from .priors import PRIOR_UPDATE_RULES, sweep_inclusion_priors
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.epsilon_clamp < 0.5:
            raise ValueError("epsilon_clamp must lie in (0, 0.5)")
        if self.prior_update not in PRIOR_UPDATE_RULES:
            raise ValueError(f"unknown prior update rule {self.prior_update!r}")


@dataclass(frozen=True)
class AmleStep:
    """One iteration's record: parameters after the update, truths, and the
    total log-likelihood before (``loglik_truth_step``) and after
    (``loglik``) the parameter update."""

    iteration: int
    params: ParamVector
    truths: GroundTruth
    loglik_truth_step: float
    loglik: float
    param_delta: float


@dataclass(frozen=True)
class AmleResult:
    truths: GroundTruth
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
    ValueError on an invalid profile or out-of-range initial parameters, and
    propagates the degenerate-truth errors from the reliability update (for
    example when the bounds force every truth set to be empty).
    """
    report = validate_profile(profile, bounds)
    if not report.ok:
        raise ValueError("invalid profile: " + "; ".join(report.violations))
    if init.num_voters != profile.num_voters:
        raise ValueError("initial parameters sized for a different voter count")
    if init.num_alternatives != profile.num_alternatives:
        raise ValueError("initial parameters sized for a different alternative count")
    init.require_open_unit()

    params = init
    steps = []
    converged = False
    iteration = 0
    truths: GroundTruth = ()

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
            AmleStep(iteration, updated, truths, loglik_truth_step, loglik, delta)
        )
        params = updated
        converged = delta <= config.tolerance

    return AmleResult(
        truths=truths,
        params=params,
        trace=tuple(steps),
        converged=converged,
        iterations=iteration,
    )
