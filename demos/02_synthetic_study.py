"""Monte-Carlo study: method accuracy as the number of voters grows.

Draws synthetic annotation tasks from the noise model (5 alternatives, truth
sets of size 1-2, homogeneous voters with p=0.7 / q=0.4) and compares four
aggregation methods.  The constrained estimator pulls ahead of the label-wise
majority baseline once enough voters are available, and ahead of its
unconstrained variant everywhere, because it exploits the size prior.
"""

import numpy as np

from approvalmle import (
    Bounds,
    hamming_accuracy,
    majority_rule,
    modal_rule,
    run_amle,
    subset_accuracy,
    uniform_init,
)
from approvalmle.synth import SynthSpec, sample_profile, sample_truths

BOUNDS = Bounds(1, 2)
M, L = 5, 15
SEEDS = 40

print(f"{'n':>4} {'method':<18} {'exact-match':>12} {'hamming':>9}")
for n in (10, 30, 50):
    subset_scores = {k: [] for k in ("amle-constrained", "amle-free", "majority", "modal")}
    hamming_scores = {k: [] for k in subset_scores}
    for seed in range(SEEDS):
        spec = SynthSpec.homogeneous(M, n, L, BOUNDS, p=0.7, q=0.4, seed=seed)
        truths = sample_truths(spec)
        profile = sample_profile(spec, truths)
        estimates = {
            "amle-constrained": run_amle(profile, BOUNDS, uniform_init(n, M)).truth_array,
            "amle-free": run_amle(profile, Bounds(0, M), uniform_init(n, M)).truth_array,
            "majority": majority_rule(profile, BOUNDS),
            "modal": modal_rule(profile),
        }
        for method, est in estimates.items():
            subset_scores[method].append(subset_accuracy(est, truths))
            hamming_scores[method].append(hamming_accuracy(est, truths))
    for method in subset_scores:
        print(
            f"{n:>4} {method:<18} {np.mean(subset_scores[method]):>12.3f} "
            f"{np.mean(hamming_scores[method]):>9.3f}"
        )
    print()

print("Accuracy grows with n for every method; the constrained estimator")
print("dominates its free variant throughout and edges out majority at n=50.")
