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
from .initialization import (
    anna_karenina_init,
    jaccard_distance,
    random_init,
    uniform_init,
)
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
    Alternative,
    Bounds,
    GroundTruth,
    Instance,
    ParamVector,
    Profile,
    TruthEstimate,
    ValidationReport,
    clamp_unit,
    validate_profile,
)
from .priors import (
    CardinalityDP,
    cardinality_mass,
    mass_given_excluded,
    mass_given_included,
    sweep_inclusion_priors,
    update_inclusion_prior,
)
from .reliability import update_reliabilities
from .synth import SynthSpec, sample_dataset, sample_profile, sample_truths
from .truth_mle import (
    ScoreBoard,
    ThresholdPartition,
    estimate_truth,
    partition,
    weighted_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AmleConfig",
    "AmleResult",
    "AmleStep",
    "Alternative",
    "Bounds",
    "CardinalityDP",
    "GroundTruth",
    "IMPOSSIBLE",
    "Instance",
    "ParamVector",
    "Profile",
    "ScoreBoard",
    "SynthSpec",
    "ThieleWeights",
    "ThresholdPartition",
    "TruthEstimate",
    "ValidationReport",
    "anna_karenina_init",
    "brute_force_truth_mle",
    "cardinality_mass",
    "clamp_unit",
    "estimate_truth",
    "hamming_accuracy",
    "harmonic_accuracy",
    "jaccard_distance",
    "majority_rule",
    "mass_given_excluded",
    "mass_given_included",
    "modal_rule",
    "partition",
    "prior_logprob",
    "random_init",
    "run_amle",
    "sample_dataset",
    "sample_profile",
    "sample_truths",
    "subset_accuracy",
    "sweep_inclusion_priors",
    "total_loglik",
    "uniform_init",
    "update_inclusion_prior",
    "update_reliabilities",
    "validate_profile",
    "weighted_scores",
]
