"""Core domain types: profiles of approval ballots, cardinality bounds, parameters.

Conventions used throughout the package:

* Alternatives and voters are indexed by their position in the profile's
  declaration order (0-based).  All vectors (scores, reliabilities, priors)
  are aligned with that order, which makes tie-breaking deterministic.
* A profile stores its ballots once, as one voter-major ``bool[n, L, m]``
  block, ``Profile.by_voter``; ``Profile.approvals`` is the instance-major
  ``bool[L, n, m]`` view of the same block (one instance's ballots are
  ``approvals[z]``).  Code that sums or pools over voters (the truth step,
  the vote counts, the distance init) reads ``by_voter``; the rest reads
  ``approvals``.
* One truth set per instance, estimated or given, is a row of a read-only
  ``bool[L, m]`` truth array, which ``TruthCounts.count`` turns into the
  counts later steps read.  Frozensets, converted with ``approval_matrix`` (the
  one reader of index sets) and ``truth_sets``, appear only in views, builders,
  single-set oracles and the set-valued ground truth of ``sample_dataset`` and
  ``io.save_dataset``.
* Ids are strings that UTF-8 can encode, distinct within each kind;
  ``Profile`` checks them once, at construction, and nothing checks them again.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
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


def require_open_unit(values, name: str) -> np.ndarray:
    """Return ``values`` as a float array; raise, naming the first entry
    outside, unless every entry lies in (0, 1)."""
    arr = np.asarray(values, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        raise ValueError(f"{name} must lie strictly in (0, 1), got {arr[~inside].flat[0]}")
    return arr


def _require_open_fields(names, fields) -> np.ndarray:
    """The 1-D ``fields`` packed into one new array; raise, naming the first
    field with an entry outside (0, 1), unless every entry lies inside."""
    packed = np.concatenate(fields)
    if not np.logical_and.reduce((packed > 0.0) & (packed < 1.0)):
        for name, arr in zip(names, fields):
            require_open_unit(arr, name)
    return packed


def require_distinct(values, name: str) -> None:
    """Raise ValueError, listing the repeated entries sorted, unless
    ``values`` are distinct."""
    if len(set(values)) < len(values):
        seen, repeated = set(), set()
        for value in values:
            (repeated if value in seen else seen).add(value)
        raise ValueError(f"{name} must be distinct; repeated: {sorted(repeated)}")


def read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def approval_matrix(sets, m: int, labels=None) -> np.ndarray:
    """Dense ``bool[len(sets), m]`` marking in row r the members of ``sets[r]``, each
    an index under ``_is_index`` in [0, m); else one ValueError lists each set at
    fault, ``<label> names unknown alternatives [...]``, with its bad members' reprs
    once each, sorted by their ``str``.  ``labels[r]`` defaults to ``set r``."""
    unknown = lambda member: not (_is_index(member) and 0 <= member < m)  # noqa: E731
    members = list(itertools.chain.from_iterable(sets))
    if any(map(unknown, members)):
        labels = [f"set {r}" for r in range(len(sets))] if labels is None else labels
        shown = [{repr(a): str(a) for a in given if unknown(a)} for given in sets]
        raise ValueError("; ".join(
            f"{label} names unknown alternatives [{', '.join(sorted(bad, key=bad.get))}]"
            for label, bad in zip(labels, shown, strict=True) if bad))
    return marked_rows(list(map(len, sets)), members, m)


def truth_sets(truths: np.ndarray) -> tuple:
    """The frozenset of marked columns of each row of a 2-D bool array."""
    columns = range(truths.shape[1])
    return tuple(frozenset(itertools.compress(columns, row)) for row in truths.tolist())


def ranked_prefixes(order: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Read-only ``bool[L, m]`` marking the first ``k[z]`` entries of each ``order[z]``."""
    marked = np.zeros(order.shape, dtype=bool)
    rows = np.arange(len(order))[:, np.newaxis]
    marked[rows, order] = np.arange(order.shape[-1]) < k[:, np.newaxis]
    return read_only(marked)


def require_truth_array(truths, length=None, m=None, name: str = "truths") -> None:
    """Raise ValueError unless ``truths`` is ``bool[L, m]``, of L and m where given."""
    shape = getattr(truths, "shape", None)
    want = f"({'L' if length is None else length}, {'m' if m is None else m})"
    if getattr(truths, "dtype", None) != bool or len(shape) != 2 or not (
        length in (None, shape[0]) and m in (None, shape[1])
    ):
        got = f"{truths.dtype} array of shape {shape}" if shape else type(truths).__name__
        raise ValueError(f"{name} must be a bool array of shape (L, m) = {want}, got {got}")


def marked_rows(sizes, members, m: int) -> np.ndarray:
    """Dense ``bool[len(sizes), m]`` whose row r marks the next ``sizes[r]``
    entries of the flat index sequence ``members``, each in [0, m)."""
    members = np.asarray(members, dtype=np.intp)
    matrix = np.zeros((len(sizes), m), dtype=bool)
    matrix[np.repeat(np.arange(len(sizes)), sizes), members] = True
    return matrix


def require_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Raise ValueError unless ``epsilon`` is a usable clamp, in (0, 0.5)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"{name} must be in (0, 0.5), got {epsilon}")


def clamp_unit(values, epsilon: float = DEFAULT_EPSILON_CLAMP) -> np.ndarray:
    """Clamp probabilities into [epsilon, 1 - epsilon].

    Idempotent and order-preserving, so repeated clamping is harmless.
    """
    require_epsilon(epsilon)
    # np.clip's values (NaN included) without the cost of its wrapper
    return np.minimum(np.maximum(np.asarray(values, dtype=float), epsilon), 1.0 - epsilon)


def _is_index(value) -> bool:
    """Whether ``value`` is an int or numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(value, name: str, least: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer under
    ``_is_index`` and, where ``least`` is given, at least ``least``."""
    if not _is_index(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        floor = "a non-negative integer" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {floor}, got {value!r}")


@dataclass(frozen=True)
class Bounds:
    """Prior cardinality interval [lower, upper], of integers, on every instance's truth set."""

    lower: int
    upper: int

    def __post_init__(self):
        if not all(_is_index(end) for end in (self.lower, self.upper)):
            raise ValueError(f"bounds must be integers, got ({self.lower!r}, {self.upper!r})")

    def contains(self, size: int) -> bool:
        return self.lower <= size <= self.upper

    def require_fit(self, num_alternatives: int) -> None:
        """Raise ValueError unless 0 <= lower <= upper <= ``num_alternatives``."""
        if not 0 <= self.lower <= self.upper <= num_alternatives:
            raise ValueError(
                f"invalid bounds ({self.lower}, {self.upper}) for m={num_alternatives}"
            )


@dataclass(frozen=True)
class Instance:
    """One question/task: an id plus one frozenset ballot per voter.

    A read-only view for callers outside the package (see
    ``Profile.instances``); no function of the package takes one.
    """

    id: str
    ballots: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "ballots", tuple(frozenset(b) for b in self.ballots)
        )


@dataclass(frozen=True, eq=False)
class TruthCounts:
    """One truth array, as the counts every step after the truth step reads.

    ``truths`` is the ``bool[L, m]`` truth array, ``sizes[z]`` the size of
    truth set z and ``occurrences[j]`` the number of truth sets holding
    alternative j.  ``true_pos[i]`` counts the (instance, alternative) pairs
    that voter i approves and that lie in the truth, as floats.  All four are
    read-only.
    """

    truths: np.ndarray
    sizes: np.ndarray
    occurrences: np.ndarray
    true_pos: np.ndarray

    @classmethod
    def count(cls, approvals: np.ndarray, truths: np.ndarray) -> "TruthCounts":
        """Counts of truths ``bool[L, m]`` against ballots ``bool[L, n, m]``."""
        require_truth_array(truths, approvals.shape[0], approvals.shape[2])
        # einsum over two bool operands would return a logical OR, not a count
        true_pos = np.einsum("zij,zj->i", approvals, truths.astype(float))
        return cls(
            read_only(truths.copy()),
            read_only(truths.sum(1)),
            read_only(truths.sum(0)),
            read_only(true_pos),
        )

    @property
    def num_instances(self) -> int:
        return self.truths.shape[0]

    @property
    def positives(self) -> int:
        """Number of (instance, alternative) pairs in the truth."""
        return int(self.sizes.sum())


@dataclass(frozen=True, eq=False)
class Profile:
    """The full input: alternative, voter and instance ids plus the ballots.

    ``approvals`` is a read-only ``bool[L, n, m]`` array: ``approvals[z, i, j]``
    is True iff voter i approves alternative j on instance z.  It must have
    the shape the three id tuples give.  The constructor copies it once, into
    the voter-major block ``by_voter``, and keeps ``approvals`` as a view of
    that block.  Its ids are strings that UTF-8 can encode, distinct within
    each kind; for the first kind (alternative, voter, instance) that is
    not, it raises ``voter ids must be strings that UTF-8 can encode`` or
    ``voter ids must be distinct; repeated: ['v1']``.
    """

    alternative_ids: tuple
    voters: tuple
    instance_ids: tuple
    approvals: np.ndarray

    def __post_init__(self):
        for field, kind in (("alternative_ids", "alternative"), ("voters", "voter"),
                            ("instance_ids", "instance")):
            ids = tuple(getattr(self, field))
            try:
                "".join(ids).encode("utf-8")
            except (TypeError, UnicodeError):
                raise ValueError(f"{kind} ids must be strings that UTF-8 can encode") from None
            require_distinct(ids, f"{kind} ids")
            object.__setattr__(self, field, ids)
        approvals = np.asarray(self.approvals, dtype=bool)
        shape = (self.num_instances, self.num_voters, self.num_alternatives)
        if approvals.shape != shape:
            raise ValueError(
                f"approvals has shape {approvals.shape}, expected (L, n, m) = {shape}"
            )
        block = read_only(np.moveaxis(approvals, 1, 0).copy(order="C"))
        object.__setattr__(self, "approvals", np.moveaxis(block, 0, 1))

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            (self.alternative_ids, self.voters, self.instance_ids)
            == (other.alternative_ids, other.voters, other.instance_ids)
            and np.array_equal(self.approvals, other.approvals)
        )

    @property
    def num_alternatives(self) -> int:
        return len(self.alternative_ids)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    @property
    def num_instances(self) -> int:
        return len(self.instance_ids)

    @cached_property
    def instances(self) -> tuple:
        """One frozenset-ballot ``Instance`` per instance, a view for callers
        outside the package; derived from ``approvals`` on first use."""
        return tuple(map(Instance, self.instance_ids, map(truth_sets, self.approvals)))

    @cached_property
    def approval_totals(self) -> np.ndarray:
        """Read-only ``int[n]``: how many (instance, alternative) pairs each
        voter approves."""
        return read_only(self.by_voter.sum((1, 2)))

    @cached_property
    def by_voter(self) -> np.ndarray:
        """Read-only ``bool[n, L, m]``: ``approvals`` voter-major and
        contiguous, so each voter's ballots over all instances are one block
        (the truth step reads them voter by voter).  It views the same block
        as ``approvals``; no copy is made."""
        return np.moveaxis(self.approvals, 1, 0)

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
        by voter ``i`` on instance ``z``.  Raises ValueError listing every
        instance without one ballot per voter; failing that, ``approval_matrix``
        lists every ballot with a member that is not an alternative index, as
        ``instance 'z2', voter position 0 names unknown alternatives [...]``.
        """
        if instance_ids is None:
            instance_ids = [f"z{z + 1}" for z in range(len(instance_ballots))]
        m, n = len(alternative_ids), len(voter_ids)
        if len(instance_ids) != len(instance_ballots):
            raise ValueError(f"{len(instance_ids)} instance ids for {len(instance_ballots)} rows")
        ragged = [f"ragged ballots: instance {zid!r} has {len(row)} ballots, expected {n}"
                  for zid, row in zip(instance_ids, instance_ballots) if len(row) != n]
        if ragged:
            raise ValueError("; ".join(ragged))
        flat = [ballot for row in instance_ballots for ballot in row]
        labels = [f"instance {z!r}, voter position {i}" for z in instance_ids for i in range(n)]
        approvals = approval_matrix(flat, m, labels).reshape(len(instance_ballots), n, m)
        return cls(alternative_ids, voter_ids, instance_ids, approvals)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Per-voter noise rates (p, q) and per-alternative inclusion priors t.

    ``p[i]`` is voter i's probability of approving a winning alternative,
    ``q[i]`` of approving a non-winning one.  ``t[j]`` is the pre-constraint
    probability that alternative j belongs to the ground truth.  Arrays are
    copied on construction and marked read-only; instances are safe to share.

    Valid by construction: raises ValueError, naming the field, unless p, q
    and t are 1-D lists of numbers, ``len(q) == len(p)`` and every entry lies
    strictly inside (0, 1), which keeps the log-odds weights finite.  The
    first failure in the order p, q, t (each by shape, then by value) is
    raised; the fields are views of one packed array, checked in one pass.
    """

    p: np.ndarray
    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        names = ("p", "q", "t")
        fields = []
        for name in names:
            try:
                arr = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                problem = f"{name} must be a list of numbers"
            else:
                problem = None if arr.ndim == 1 else f"{name} must be 1-D, got shape {arr.shape}"
            if problem:
                if fields:
                    _require_open_fields(names, fields)
                raise ValueError(problem)
            fields.append(arr)
        packed = read_only(_require_open_fields(names, fields))
        n, voters = len(fields[0]), len(fields[1])
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "p", packed[:n])
        object.__setattr__(self, "q", packed[n : n + voters])
        object.__setattr__(self, "t", packed[n + voters :])
        if voters != n:
            raise ValueError(f"q has {voters} entries for the {n} of p")

    @property
    def num_voters(self) -> int:
        return len(self.p)

    @property
    def num_alternatives(self) -> int:
        return len(self.t)

    def packed(self) -> np.ndarray:
        """The read-only (p_1..p_n, q_1..q_n, t_1..t_m); used for the stop rule."""
        return self._packed

    def require_fit(self, ballots_shape) -> None:
        """Raise ValueError unless ``ballots_shape`` is the ``(n, m)`` of one
        instance's ballots that these parameters are sized for."""
        shape, fit = tuple(ballots_shape), (self.num_voters, self.num_alternatives)
        if shape != fit:
            raise ValueError(
                f"parameters sized for a different profile: ballots of shape "
                f"{shape}, parameters for (n, m) = {fit}"
            )


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


def validate_profile(
    profile: Profile,
    bounds: Bounds,
    ground_truth: np.ndarray | None = None,
) -> None:
    """Check that a profile has ids of every kind, that the bounds fit it
    and that any ground truth is a ``bool[L, m]`` array of its L and m.

    Raises one ValueError, ``invalid profile: a; b``, listing every violation
    found.  Otherwise warns, with one UserWarning per ground-truth set whose
    size falls outside the bounds, in instance order.  The ids and ballots
    need no check here: a ``Profile`` is valid in both by construction.
    """
    violations = [
        f"profile declares no {name}"
        for name, size in (
            ("alternatives", profile.num_alternatives),
            ("voters", profile.num_voters),
            ("instances", profile.num_instances),
        )
        if size < 1
    ]
    try:
        bounds.require_fit(profile.num_alternatives)
    except ValueError as exc:
        violations.append(str(exc))
    if ground_truth is not None:
        try:
            require_truth_array(ground_truth, profile.num_instances, profile.num_alternatives,
                                "ground truth")
        except ValueError as exc:
            violations.append(str(exc))
    if violations:
        raise ValueError("invalid profile: " + "; ".join(violations))
    sizes = [] if ground_truth is None else ground_truth.sum(1).tolist()
    for zid, size in zip(profile.instance_ids, sizes):
        if not bounds.contains(size):
            warnings.warn(
                f"ground truth of instance {zid!r} has size "
                f"{size} outside [{bounds.lower}, {bounds.upper}]",
                stacklevel=2,
            )
