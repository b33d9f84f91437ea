"""Numbers are checked in one place: ``model.real_array``, under ``_is_real``.

Every probability and weight a caller hands the package (``ParamVector``'s
p, q and t, the initial rates, the inclusion priors, ``clamp_unit``'s values
and ``ThieleWeights``) is read through it: an entry counts only if it is an
int, float or numpy real, not a bool; a string is not read as the number it
spells.  ``io`` reads a parameter file through ``ParamVector`` and holds no
number check of its own.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from approvalmle import (
    Bounds,
    ParamVector,
    Profile,
    ThieleWeights,
    TruthCounts,
    anna_karenina_init,
    cardinality_mass,
    clamp_unit,
    random_init,
    sweep_inclusion_priors,
    uniform_init,
)
from approvalmle.likelihood import prior_logprob
from approvalmle.model import real_array

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
COUNTS = TruthCounts.count(np.zeros((1, 1, 2), dtype=bool), np.zeros((1, 2), dtype=bool))
PROFILE = Profile.build(["a", "b"], ["v1", "v2", "v3"], [[{0}, {1}, {0, 1}]])

#: ``(reader, field, call)``: ``call(value)`` hands ``value`` to the reader
#: as the field it names in its refusal.
READERS = [
    ("ParamVector", "p", lambda value: ParamVector(value, [0.5], [0.5])),
    ("ParamVector", "q", lambda value: ParamVector([0.5], value, [0.5])),
    ("ParamVector", "t", lambda value: ParamVector([0.5], [0.5], value)),
    ("uniform_init", "p0", lambda value: uniform_init(2, 2, p0=value)),
    ("uniform_init", "q0", lambda value: uniform_init(2, 2, q0=value)),
    ("uniform_init", "t0", lambda value: uniform_init(2, 2, t0=value)),
    ("random_init", "t0", lambda value: random_init(2, 3, 0, t0=value)),
    ("anna_karenina_init", "t0", lambda value: anna_karenina_init(PROFILE, t0=value)),
    ("cardinality_mass", "inclusion probabilities",
     lambda value: cardinality_mass(value, Bounds(0, 1))),
    ("sweep_inclusion_priors", "inclusion probabilities",
     lambda value: sweep_inclusion_priors(COUNTS, Bounds(0, 1), value)),
    ("prior_logprob", "inclusion probabilities",
     lambda value: prior_logprob({0}, value, Bounds(1, 1))),
    ("clamp_unit", "values", clamp_unit),
    ("ThieleWeights", "weights", ThieleWeights),
]
NOT_NUMBERS = ["0.5", ["0.5"], True, [True, 0.5], [None]]


@pytest.mark.parametrize(
    "reader, field, call, value",
    [
        pytest.param(reader, field, call, value, id=f"{reader}-{field}-{value!r}")
        for reader, field, call in READERS
        for value in NOT_NUMBERS
    ],
)
def test_every_reader_refuses_a_non_number_naming_its_field(reader, field, call, value):
    # "0.5" was parsed, True read as 1.0 and None as nan (refused as out of
    # range, or clamped into it)
    if reader == "ParamVector":
        message = f"{field} must be a list of numbers"
    else:
        message = f"{field} must be a number or a list of numbers, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [pytest.param(call, id=reader)
     for reader, field, call in READERS if field == "inclusion probabilities"],
)
@pytest.mark.parametrize(
    "value, shape",
    [(0.5, ()), (np.float64(0.5), ()), (np.array(0.5), ()), ([[0.5]], (1, 1)),
     (np.full((2, 2), 0.5), (2, 2)), ([[1.5, 0.5]], (1, 2))],
    ids=["scalar", "numpy-scalar", "0-d-array", "nested", "2-d-array", "2-d-out-of-range"],
)
def test_inclusion_priors_that_are_not_1d_are_refused(call, value, shape):
    # a scalar raised a TypeError (no len()); [[0.5]] had mass 1.0 under [0, 1]
    message = f"inclusion probabilities must be 1-D, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "value",
    [0.5, 1, np.float32(0.5), np.int64(1), [0.5, np.float64(0.25)], (0.5, 0.25),
     [[0.5], [0.25]], np.array([0.5, 0.25], dtype=np.float32), np.array([1, 2]),
     np.array([0.5, 0.25], dtype=object)],
    ids=["float", "int", "numpy-float", "numpy-int", "list", "tuple", "nested",
         "float32-array", "int-array", "object-array"],
)
def test_numbers_of_every_kind_read_as_numpy_reads_them(value):
    got = real_array(value, "x")
    want = np.asarray(value, dtype=float)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_a_float_array_is_read_without_a_copy():
    values = np.array([0.5, 0.25])
    assert real_array(values, "x") is values


@pytest.mark.parametrize(
    "value", [[[0.5], [0.5, 0.5]], [10**400], {"a": 0.5}, np.array([True]), [0.5 + 1j]],
    ids=["ragged", "too-large-for-a-float", "dict", "bool-array", "complex"],
)
def test_values_that_form_no_float_array_are_refused(value):
    message = f"x must be a number or a list of numbers, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real_array(value, "x")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: uniform_init("2", 2), "n must be an integer, got '2'"),
        (lambda: uniform_init(2, -1), "m must be a non-negative integer, got -1"),
        (lambda: random_init(2, "2", 0), "m must be an integer, got '2'"),
        (lambda: random_init(2.0, 2, 0), "n must be an integer, got 2.0"),
        (lambda: ThieleWeights.harmonic("3"), "m must be an integer, got '3'"),
        (lambda: ThieleWeights.harmonic(-1), "m must be a non-negative integer, got -1"),
    ],
    ids=["uniform-n", "uniform-negative-m", "random-m", "random-float-n", "harmonic",
         "harmonic-negative"],
)
def test_sizes_are_integers_under_require_integer(call, message):
    # each raised a TypeError, or a ValueError that did not name the size
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_only_model_and_amle_read_is_real():
    # amle's tolerance is one scalar, checked beside its finiteness
    users = sorted(path.name for path in PACKAGE.glob("*.py") if "_is_real" in path.read_text())
    assert users == ["amle.py", "model.py"]
