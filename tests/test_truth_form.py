"""Ground truth travels through the package as the ``bool[L, m]`` truth array.

Frozensets of alternative indices are converted to and from that array, with
``model.approval_matrix`` and ``model.truth_sets``, only where a set is the
point: the frozenset views and builders, the single-set likelihood oracles,
and the two set-valued edges that the benchmark's set-up still reads
(``sample_dataset`` returns sets and ``io.save_dataset`` accepts them).  No
other code in ``src/`` names either function, so no other function takes or
returns a ground truth as sets.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
MODULES = sorted(PACKAGE.glob("*.py"))
CONVERTERS = {"approval_matrix", "truth_sets"}
#: ``(module, function)``: the only places that may name a converter.
ALLOWED = {
    ("model.py", "Profile.build"),
    ("model.py", "Profile.instances"),
    ("amle.py", "_TruthSets.truths"),  # AmleStep.truths and AmleResult.truths
    ("likelihood.py", "prior_logprob"),
    ("likelihood.py", "instance_loglik"),
    # held by perfbench/workloads.py, which writes sample_dataset's sets
    ("synth.py", "sample_dataset"),
    ("io.py", "save_dataset"),
}


def converter_uses(tree: ast.Module) -> list:
    """``(function, line, name)`` for each use of a converter in ``tree``,
    ``function`` being the dotted names of the enclosing classes and
    functions ("" at module level).  A call, a reference passed on (as to
    ``map``) and an attribute (``model.truth_sets``) each count; an import
    does not."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in CONVERTERS:
                uses.append((".".join(scope), child.lineno, name))
            visit(child, scope)

    visit(tree, ())
    return uses


def test_the_guard_sees_each_kind_of_use():
    source = (
        "from .model import approval_matrix, truth_sets\n"
        "from . import model\n"
        "x = approval_matrix(sets, 3)\n"
        "class C:\n"
        "    def f(self, t):\n"
        "        return map(truth_sets, t)\n"
        "def g(sets):\n"
        "    def h():\n"
        "        return model.approval_matrix(sets, 2)\n"
        "    return h\n"
    )
    assert converter_uses(ast.parse(source)) == [
        ("", 3, "approval_matrix"), ("C.f", 6, "truth_sets"), ("g.h", 9, "approval_matrix"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_converts_sets_only_where_allowed(path):
    uses = converter_uses(ast.parse(path.read_text(encoding="utf-8")))
    stray = [(line, f"{name} in {function or 'module scope'}") for function, line, name in uses
             if (path.name, function) not in ALLOWED]
    assert not stray, f"{path.name} converts a ground truth to or from sets: " + ", ".join(
        f"line {line}: {what}" for line, what in stray
    )


def test_every_allowed_place_still_converts():
    # an entry whose conversion is gone is deleted from the list with it
    found = {
        (path.name, function)
        for path in MODULES
        for function, _, _ in converter_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert ALLOWED - found == set()
