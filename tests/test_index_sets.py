"""Alternative-index sets are read in one place: ``model.approval_matrix``.

``Profile.build``, the set form of ``io.save_dataset``,
``likelihood.prior_logprob`` and ``likelihood.instance_loglik`` pass their sets to it
with labels of their own.  A member counts only if it is an int or numpy
integer, not a bool, in [0, m); otherwise one ValueError lists each set at
fault as ``<label> names unknown alternatives [...]``.  The phrase is built
nowhere else in ``src/``, so that no second member check grows beside it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from approvalmle.model import approval_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
MODULES = sorted(PACKAGE.glob("*.py"))
MESSAGE = "names unknown alternatives"
#: ``(module, function)``: the only place that may build the message.
ALLOWED = {("model.py", "approval_matrix")}


def message_uses(tree: ast.Module) -> list:
    """``(function, line)`` for each string in ``tree`` holding ``MESSAGE``,
    ``function`` being the dotted names of the enclosing classes and
    functions ("" at module level).  A docstring does not count."""
    uses = []
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and MESSAGE in child.value and id(child) not in docstrings):
                uses.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return uses


def test_the_guard_sees_each_kind_of_use():
    source = (
        '"""Sets whose member names unknown alternatives are refused."""\n'
        "def f(bad):\n"
        '    """Raise if the candidate names unknown alternatives."""\n'
        '    raise ValueError(f"candidate names unknown alternatives {bad}")\n'
        "class C:\n"
        "    def g(self, zid):\n"
        "        return 'ground truth of ' + zid + ' names unknown alternatives'\n"
        "X = 'it names unknown alternative 7'\n"
    )
    assert message_uses(ast.parse(source)) == [("f", 4), ("C.g", 7)]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_reads_index_sets_only_through_approval_matrix(path):
    text = path.read_text(encoding="utf-8")
    stray = [f"line {line} in {function or 'module scope'}"
             for function, line in message_uses(ast.parse(text))
             if (path.name, function) not in ALLOWED]
    assert not stray, f"{path.name} builds {MESSAGE!r} outside approval_matrix: " + ", ".join(
        stray
    )
    assert "_unknown_members" not in text


def test_approval_matrix_still_builds_the_message():
    found = {
        (path.name, function)
        for path in MODULES
        for function, _ in message_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED


INTEGER_TYPES = (int, np.int64, np.int32, np.uint8, np.intp)


@st.composite
def index_sets(draw, m):
    """One index set in one of the forms callers pass: a tuple, a list that
    may repeat members, a set or a frozenset, of ints or numpy integers."""
    members = draw(st.lists(
        st.builds(lambda kind, a: kind(a), st.sampled_from(INTEGER_TYPES),
                  st.integers(0, m - 1)),
        max_size=2 * m,
    ))
    form = draw(st.sampled_from([tuple, list, set, frozenset]))
    return form(members)


def reference_matrix(sets, m):
    matrix = np.zeros((len(sets), m), dtype=bool)
    for r, members in enumerate(sets):
        for a in members:
            matrix[r, int(a)] = True
    return matrix


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.lists(index_sets(m),
                                                                           max_size=6))))
def test_valid_sets_are_marked_as_a_loop_marks_them(case):
    m, sets = case
    matrix = approval_matrix(sets, m)
    assert matrix.dtype == bool and matrix.shape == (len(sets), m)
    np.testing.assert_array_equal(matrix, reference_matrix(sets, m))


#: Members that are not alternative indices of m = 3; the ints -1 and m lie
#: outside [0, m), the rest are not ints (a bool equals 0 or 1 but is not one).
NOT_INDICES = [1.5, True, np.False_, np.float64(2.0), None, "a", [0], -1, 3]


@given(
    st.lists(index_sets(3), min_size=1, max_size=5),
    st.data(),
    st.booleans(),
)
def test_members_that_are_not_indices_are_refused_naming_each_set(sets, data, labelled):
    sets = [list(members) for members in sets]
    faulty = sorted(data.draw(st.sets(st.integers(0, len(sets) - 1), min_size=1)))
    expected = []
    labels = [f"row {r}" for r in range(len(sets))] if labelled else None
    for r in faulty:
        bad = data.draw(st.sampled_from(NOT_INDICES))
        # listed once however often it appears, and wherever it stands
        for _ in range(data.draw(st.integers(1, 2))):
            sets[r].insert(data.draw(st.integers(0, len(sets[r]))), bad)
        label = labels[r] if labelled else f"set {r}"
        expected.append(f"{label} names unknown alternatives [{bad!r}]")
    with pytest.raises(ValueError) as info:
        approval_matrix(sets, 3, labels)
    assert str(info.value) == "; ".join(expected)


def test_bad_members_are_listed_sorted_by_their_str():
    with pytest.raises(ValueError) as info:
        approval_matrix([(0, "b", 1.5, None, "b", np.True_)], 3, ["candidate"])
    assert str(info.value) == (
        "candidate names unknown alternatives [1.5, None, np.True_, 'b']"
    )
