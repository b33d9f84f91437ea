"""Recover set-valued ground truths from noisy approval ballots.

Voters cast approval ballots over a fixed set of alternatives across many
instances; each instance has an unknown winning set whose size is known to lie
in an interval [l, u].  This package estimates the winning sets jointly with
per-voter noise rates and per-alternative inclusion priors by alternating
maximum likelihood, and ships baselines, metrics, synthetic generation, and a
batch evaluation harness.
"""

from .amle import AmleConfig, AmleResult, AmleStep, run_amle
from .baselines import majority_rule, modal_rule
from .initialization import anna_karenina_init, random_init, uniform_init
from .likelihood import (
    IMPOSSIBLE,
    brute_force_truth_mle,
    prior_logprob,
    total_loglik,
)
from .metrics import (
    ThieleWeights,
    hamming_accuracy,
    harmonic_accuracy,
    subset_accuracy,
)
from .model import (
    Bounds,
    GroundTruth,
    Instance,
    ParamVector,
    Profile,
    TruthCounts,
    TruthEstimate,
    approval_matrix,
    clamp_unit,
    truth_sets,
    validate_profile,
)
from .priors import (
    CardinalityDP,
    cardinality_mass,
    sweep_inclusion_priors,
)
from .reliability import DegenerateEstimate, update_reliabilities
from .synth import SynthSpec, sample_dataset, sample_profile, sample_truths
from .truth_mle import estimate_truth, explain_truth, voter_weights

__version__ = "0.1.0"

__all__ = [
    "AmleConfig",
    "AmleResult",
    "AmleStep",
    "Bounds",
    "CardinalityDP",
    "DegenerateEstimate",
    "GroundTruth",
    "IMPOSSIBLE",
    "Instance",
    "ParamVector",
    "Profile",
    "SynthSpec",
    "ThieleWeights",
    "TruthCounts",
    "TruthEstimate",
    "anna_karenina_init",
    "approval_matrix",
    "brute_force_truth_mle",
    "cardinality_mass",
    "clamp_unit",
    "estimate_truth",
    "explain_truth",
    "hamming_accuracy",
    "harmonic_accuracy",
    "majority_rule",
    "modal_rule",
    "prior_logprob",
    "random_init",
    "run_amle",
    "sample_dataset",
    "sample_profile",
    "sample_truths",
    "subset_accuracy",
    "sweep_inclusion_priors",
    "total_loglik",
    "truth_sets",
    "uniform_init",
    "update_reliabilities",
    "validate_profile",
    "voter_weights",
]
