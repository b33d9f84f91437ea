"""Core domain types: profiles of approval ballots, cardinality bounds, parameters.

Conventions used throughout the package:

* Alternatives and voters are indexed by their position in the profile's
  declaration order (0-based).  All vectors (scores, reliabilities, priors)
  are aligned with that order, which makes tie-breaking deterministic.
* Ballots and truth sets enter and leave as frozensets of alternative indices
  (truths: one per instance, in instance order); computation runs on the dense
  boolean ``Profile.approvals`` and ``Profile.truth_array`` arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

#: Default clamp applied to estimated probabilities.  The noise model needs
#: every parameter strictly inside (0, 1) for log-odds weights to stay finite,
#: but the closed-form updates can return exactly 0 or 1 on degenerate counts.
DEFAULT_EPSILON_CLAMP = 1e-4

#: Absolute log-space tolerance under which two scores or likelihoods tie; they
#: are float sums over up to n*m terms, so exact equality is meaningless.
TIE_TOLERANCE = 1e-9

GroundTruth = tuple


def require_open_unit(values, name: str) -> np.ndarray:
    """Return ``values`` as a float array; raise unless every entry lies in (0, 1)."""
    arr = np.asarray(values, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {values}")
    return arr


def approval_matrix(sets, m: int) -> np.ndarray:
    """Dense ``bool[len(sets), m]`` whose row r marks the members of ``sets[r]``."""
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    members = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)
    if members.size and not 0 <= members.min() <= members.max() < m:
        raise ValueError(f"alternative indices must lie in [0, {m})")
    matrix = np.zeros((len(sets), m), dtype=bool)
    matrix[np.repeat(np.arange(len(sets)), sizes), members] = True
    return matrix


def clamp_unit(values, epsilon: float = DEFAULT_EPSILON_CLAMP) -> np.ndarray:
    """Clamp probabilities into [epsilon, 1 - epsilon].

    Idempotent and order-preserving, so repeated clamping is harmless.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    return np.clip(np.asarray(values, dtype=float), epsilon, 1.0 - epsilon)


@dataclass(frozen=True)
class Alternative:
    """One selectable item; ``index`` is its position in the profile."""

    id: str
    index: int


@dataclass(frozen=True)
class Bounds:
    """Prior cardinality interval [lower, upper] on every instance's truth set."""

    lower: int
    upper: int

    def contains(self, size: int) -> bool:
        return self.lower <= size <= self.upper

    def valid_for(self, num_alternatives: int) -> bool:
        return 0 <= self.lower <= self.upper <= num_alternatives


@dataclass(frozen=True)
class Instance:
    """One question/task: an id plus one approval ballot per voter."""

    id: str
    ballots: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "ballots", tuple(frozenset(b) for b in self.ballots)
        )


@dataclass(frozen=True)
class Profile:
    """The full input: alternatives, voters, and per-instance ballots."""

    alternatives: tuple
    voters: tuple
    instances: tuple

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "voters", tuple(self.voters))
        object.__setattr__(self, "instances", tuple(self.instances))

    @property
    def num_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def alternative_ids(self) -> tuple:
        return tuple(a.id for a in self.alternatives)

    @cached_property
    def approvals(self) -> np.ndarray:
        """Read-only ``bool[L, n, m]``: ``approvals[z, i, j]`` is True iff voter
        i approves alternative j on instance z.  Built on first use."""
        n = self.num_voters
        if any(len(inst.ballots) != n for inst in self.instances):
            raise ValueError(f"ragged ballots: every instance needs {n} ballots")
        ballots = [ballot for inst in self.instances for ballot in inst.ballots]
        dense = approval_matrix(ballots, self.num_alternatives)
        dense.setflags(write=False)
        return dense.reshape(self.num_instances, n, self.num_alternatives)

    def truth_array(self, truths: GroundTruth) -> np.ndarray:
        """``bool[L, m]`` whose row z marks the members of ``truths[z]``."""
        if len(truths) != self.num_instances:
            raise ValueError(
                f"got {len(truths)} truth sets for {self.num_instances} instances"
            )
        return approval_matrix(truths, self.num_alternatives)

    @classmethod
    def build(
        cls,
        alternative_ids: Sequence[str],
        voter_ids: Sequence[str],
        instance_ballots: Sequence[Sequence[Iterable[int]]],
        instance_ids: Sequence[str] | None = None,
    ) -> "Profile":
        """Assemble a profile from raw index sets.

        ``instance_ballots[z][i]`` is the set of alternative indices approved
        by voter ``i`` on instance ``z``.
        """
        alternatives = tuple(
            Alternative(aid, idx) for idx, aid in enumerate(alternative_ids)
        )
        if instance_ids is None:
            instance_ids = [f"z{z + 1}" for z in range(len(instance_ballots))]
        instances = tuple(
            Instance(zid, tuple(frozenset(b) for b in ballots))
            for zid, ballots in zip(instance_ids, instance_ballots)
        )
        return cls(alternatives, tuple(voter_ids), instances)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Per-voter noise rates (p, q) and per-alternative inclusion priors t.

    ``p[i]`` is voter i's probability of approving a winning alternative,
    ``q[i]`` of approving a non-winning one.  ``t[j]`` is the pre-constraint
    probability that alternative j belongs to the ground truth.  Arrays are
    copied on construction and marked read-only; instances are safe to share.
    """

    p: np.ndarray
    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name in ("p", "q", "t"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_voters(self) -> int:
        return len(self.p)

    @property
    def num_alternatives(self) -> int:
        return len(self.t)

    def packed(self) -> np.ndarray:
        """Flatten as (p_1..p_n, q_1..q_n, t_1..t_m); used for the stop rule."""
        return np.concatenate([self.p, self.q, self.t])

    def clamped(self, epsilon: float = DEFAULT_EPSILON_CLAMP) -> "ParamVector":
        return ParamVector(
            clamp_unit(self.p, epsilon),
            clamp_unit(self.q, epsilon),
            clamp_unit(self.t, epsilon),
        )

    def require_open_unit(self) -> None:
        """Raise unless every entry lies strictly inside (0, 1)."""
        for name in ("p", "q", "t"):
            require_open_unit(getattr(self, name), name)


@dataclass(frozen=True, eq=False)
class TruthEstimate:
    """Estimated winning set for one instance, with score diagnostics.

    ``partition`` holds the (above, at, below) threshold sets; ``chosen`` is
    the selected top-``admissible_k`` set under the deterministic tie-break.
    """

    chosen: frozenset
    scores: np.ndarray
    threshold: float
    partition: tuple
    admissible_k: int


@dataclass
class ValidationReport:
    """Structural check results; semantic issues are reported, not raised."""

    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_profile(
    profile: Profile,
    bounds: Bounds,
    ground_truth: GroundTruth | None = None,
) -> ValidationReport:
    """Check a profile and bounds for structural violations.

    Returns a report listing every problem found (ragged ballots, unknown
    alternative indices, inverted bounds, ...).  A valid input yields an
    empty violation list.  Ground-truth sets whose size falls outside the
    bounds are reported as warnings only.
    """
    report = ValidationReport()
    m = profile.num_alternatives
    n = profile.num_voters
    length = profile.num_instances

    if m < 1:
        report.violations.append("profile declares no alternatives")
    if n < 1:
        report.violations.append("profile declares no voters")
    if length < 1:
        report.violations.append("profile declares no instances")

    ids = [a.id for a in profile.alternatives]
    if len(set(ids)) != len(ids):
        report.violations.append("duplicate alternative ids")
    for pos, alt in enumerate(profile.alternatives):
        if alt.index != pos:
            report.violations.append(
                f"alternative {alt.id!r} has index {alt.index}, expected {pos}"
            )
    if len(set(profile.voters)) != len(profile.voters):
        report.violations.append("duplicate voter ids")
    instance_ids = [inst.id for inst in profile.instances]
    if len(set(instance_ids)) != len(instance_ids):
        report.violations.append("duplicate instance ids")

    for inst in profile.instances:
        if len(inst.ballots) != n:
            report.violations.append(
                f"ragged ballots: instance {inst.id!r} has {len(inst.ballots)} "
                f"ballots, expected {n}"
            )
        for i, ballot in enumerate(inst.ballots):
            bad = [a for a in ballot if not (isinstance(a, (int, np.integer)) and 0 <= a < m)]
            if bad:
                report.violations.append(
                    f"unknown alternatives {sorted(map(str, bad))} in instance "
                    f"{inst.id!r}, voter position {i}"
                )

    if bounds.lower > bounds.upper:
        report.violations.append(
            f"l exceeds u: bounds ({bounds.lower}, {bounds.upper})"
        )
    if bounds.lower < 0:
        report.violations.append(f"negative lower bound {bounds.lower}")
    if bounds.upper > m:
        report.violations.append(
            f"upper bound {bounds.upper} exceeds the {m} alternatives"
        )

    if ground_truth is not None:
        if len(ground_truth) != length:
            report.violations.append(
                f"ground truth covers {len(ground_truth)} instances, expected {length}"
            )
        else:
            for inst, truth in zip(profile.instances, ground_truth):
                bad = [a for a in truth if not 0 <= a < m]
                if bad:
                    report.violations.append(
                        f"ground truth of instance {inst.id!r} names unknown "
                        f"alternatives {sorted(bad)}"
                    )
                elif not bounds.contains(len(truth)):
                    report.warnings.append(
                        f"ground truth of instance {inst.id!r} has size "
                        f"{len(truth)} outside [{bounds.lower}, {bounds.upper}]"
                    )
    return report
