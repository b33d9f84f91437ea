"""Shared fixtures: two small profiles used across the suite.

``worked_profile`` is a 3-voter, 5-alternative, 4-instance profile whose
estimation trajectory is known in closed form; ``counted_instance`` holds the
``bool[10, 5]`` ballots of a single instance with approval counts
(9, 8, 7, 5, 5) and homogeneous voters, for which the scores are known exactly.
"""

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    ParamVector,
    Profile,
    TruthCounts,
    approval_matrix,
    cardinality_mass,
)


@pytest.fixture
def worked_profile() -> Profile:
    return Profile.build(
        ["a1", "a2", "a3", "a4", "a5"],
        ["v1", "v2", "v3"],
        [
            [{0, 3}, {1}, {1, 2, 3}],
            [{0}, {4}, {1, 2, 4}],
            [{2}, {3}, {1, 2}],
            [{0}, {0}, {2}],
        ],
    )


@pytest.fixture
def worked_bounds() -> Bounds:
    return Bounds(1, 2)


@pytest.fixture
def worked_init() -> ParamVector:
    return ParamVector(
        [0.5, 0.5, 0.5], [0.44, 0.41, 0.32], [0.5, 0.5, 0.5, 0.5, 0.5]
    )


#: First-pass truth estimates for the worked profile under worked_init.
WORKED_FIRST_TRUTHS = (
    frozenset({1, 3}),
    frozenset({1, 4}),
    frozenset({1, 2}),
    frozenset({0, 2}),
)

#: Fixed-point truth estimates for the worked profile.
WORKED_FINAL_TRUTHS = (
    frozenset({1, 2}),
    frozenset({1, 2}),
    frozenset({1, 2}),
    frozenset({2}),
)


def instance_with_counts(counts, n) -> np.ndarray:
    """One instance's ``bool[n, m]`` ballots whose approval count for
    alternative j is counts[j].

    Voter v approves alternative j iff v < counts[j]; with homogeneous voter
    parameters only the counts matter for scores.
    """
    return np.arange(n)[:, np.newaxis] < np.asarray(counts)


def counts_of(profile: Profile, truths) -> TruthCounts:
    """``TruthCounts`` of one frozenset per instance against ``profile``."""
    return TruthCounts.count(profile.approvals, approval_matrix(truths, profile.num_alternatives))


def conditional_masses(j, t, bounds):
    """a_in and a_out of alternative j: the mass of the other coins on the
    counts they may reach with j forced in, and with j forced out."""
    rest = np.delete(np.asarray(t, dtype=float), j)
    forced_in = Bounds(max(bounds.lower - 1, 0), bounds.upper - 1)
    forced_out = Bounds(bounds.lower, min(bounds.upper, len(rest)))
    return cardinality_mass(rest, forced_in), cardinality_mass(rest, forced_out)


def voterless_counts(truths, m) -> TruthCounts:
    """``counts_of`` ``truths`` on a profile with m alternatives and no
    voters; it holds all that the prior sweep reads."""
    length = len(truths)
    profile = Profile(
        [f"a{j}" for j in range(m)],
        (),
        [f"z{z}" for z in range(length)],
        np.zeros((length, 0, m), dtype=bool),
    )
    return counts_of(profile, truths)


@pytest.fixture
def counted_instance() -> np.ndarray:
    return instance_with_counts([9, 8, 7, 5, 5], 10)


@pytest.fixture
def counted_params() -> ParamVector:
    return ParamVector([0.7] * 10, [0.4] * 10, [0.5, 0.5, 0.5, 0.6, 0.5])


ACCEPTANCE_TITLES = {
    "c01": "golden score board (scores, threshold, partition, choice)",
    "c02": "golden first iteration (truths, reliabilities, prior masses)",
    "c03": "golden converged truths (legacy rule reproduction)",
    "c04": "distance-based initialization example",
    "c05": "oracle equivalence on 1000 random instances",
    "c06": "cardinality mass DP vs enumeration (500 cases)",
    "c07": "monotone likelihood and fixed points (100 runs)",
    "c08": "synthetic recovery study (method ordering, scaling)",
    "c09": "annotation dataset reproduction (conditional)",
    "c10": "metric unit suite",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcomes = {}
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_" not in nodeid:
                continue
            key = nodeid.split("::test_")[1].split("_")[0]
            if status == "failed" or key not in outcomes:
                outcomes[key] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_TITLES):
        title = ACCEPTANCE_TITLES[key]
        status = outcomes.get(key)
        if status is None:
            continue
        label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[status]
        terminalreporter.write_line(
            f"criterion {int(key[1:]):>2}: {label}  {title}"
        )


def random_small_instance(rng: np.random.Generator):
    """Random ``bool[n, m]`` ballots + params + bounds for oracle cross-checks."""
    from approvalmle import clamp_unit

    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 9))
    lower = int(rng.integers(0, m + 1))
    upper = int(rng.integers(lower, m + 1))
    params = ParamVector(
        clamp_unit(rng.random(n)), clamp_unit(rng.random(n)), clamp_unit(rng.random(m))
    )
    ballots = np.array([rng.random(m) < 0.5 for _ in range(n)])
    return ballots, params, Bounds(lower, upper)
