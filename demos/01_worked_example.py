"""Walkthrough: estimating set-valued truths on a tiny annotation profile.

Three voters answer four questions over five alternatives; each question's
true answer set is known to contain one or two alternatives.  This script
walks the full estimation pipeline by hand: score boards, the first truth
pass, reliability and prior updates, and the alternating loop run to its
fixed point under both prior-update rules.
"""

from itertools import compress

import numpy as np

from approvalmle import (
    AmleConfig,
    Bounds,
    Profile,
    TruthCounts,
    anna_karenina_init,
    estimate_truth,
    explain_truth,
    run_amle,
    update_reliabilities,
    voter_weights,
)

profile = Profile.build(
    alternative_ids=["a1", "a2", "a3", "a4", "a5"],
    voter_ids=["ann", "bob", "cam"],
    instance_ballots=[
        [{0, 3}, {1}, {1, 2, 3}],   # question 1
        [{0}, {4}, {1, 2, 4}],      # question 2
        [{2}, {3}, {1, 2}],         # question 3
        [{0}, {0}, {2}],            # question 4
    ],
)
bounds = Bounds(1, 2)


def show(truths):
    """Print each question's truth set, a row of the ``bool[L, m]`` truth array."""
    for zid, row in zip(profile.instance_ids, truths):
        print(f"  {zid}: {list(compress(profile.alternative_ids, row))}")


print("=== distance-based initialization ===")
init = anna_karenina_init(profile)
for i, voter in enumerate(profile.voters):
    print(f"  {voter}: p0={init.p[i]:.2f} q0={init.q[i]:.3f}")

# the closest voter (cam, who answers most like the others) starts with the
# largest weight; every voter starts at p = 1/2

print("\n=== score board for question 1 ===")
estimate = explain_truth(profile.approvals[0], init, bounds)
print(f"  voter weights: {np.round(voter_weights(init), 3)}")
print(f"  scores:        {np.round(estimate.scores, 3)}")
print(f"  threshold:     {estimate.threshold:.3f}")
print(f"  chosen set:    {sorted(profile.alternative_ids[j] for j in estimate.chosen)}")

print("\n=== one manual round: truths, then reliabilities ===")
truths = estimate_truth(profile, init, bounds)
show(truths)
p_hat, q_hat = update_reliabilities(profile, TruthCounts.count(profile.approvals, truths))
for i, voter in enumerate(profile.voters):
    print(f"  {voter}: p={p_hat[i]:.3f} q={q_hat[i]:.3f}")

print("\n=== full alternating loop, exact prior updates (default) ===")
result = run_amle(profile, bounds, init, AmleConfig(max_iterations=1000))
print(f"  converged: {result.converged} after {result.iterations} iterations")
show(result.truth_array)
print(f"  final t: {np.round(result.params.t, 4)}")

print("\n=== same loop with the legacy prior update ===")
legacy = run_amle(profile, bounds, init, AmleConfig(prior_update="legacy"))
print(f"  converged: {legacy.converged} after {legacy.iterations} iterations")
show(legacy.truth_array)
print(f"  final t: {np.round(legacy.params.t, 4)}")

print(
    "\nThe two rules can settle on different fixed points: the exact rule "
    "maximizes the likelihood at every step (its trace never decreases), "
    "while the legacy rule reproduces previously published trajectories."
)
logliks = [step.loglik for step in result.trace[:8]]
print(f"exact-rule log-likelihood trace (first 8): {np.round(logliks, 3)}")
