"""Ids are checked in one place: ``Profile``'s constructor, with the repeat
check ``model.require_distinct``.

Every reader turns an id into its ``str`` and builds a ``Profile``, which
refuses an id that is not a string UTF-8 can encode and a repeated id, so no
later step checks them again.  ``require_distinct`` also serves ``evaluate``'s
alternative ids and ``run_benchmark``'s batch sizes and methods.  Its message,
``... must be distinct; repeated: [...]``, is built nowhere else in ``src/``,
and nothing there imports ``collections.Counter``, so that no second repeat
count grows beside it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
MODULES = sorted(PACKAGE.glob("*.py"))
MESSAGE = "must be distinct"
#: ``(module, function)``: the only place that may build the message.
ALLOWED = {("model.py", "require_distinct")}


def id_check_uses(tree: ast.Module) -> list:
    """``(function, line, what)`` for each string holding ``MESSAGE`` and
    each import or attribute ``Counter`` of ``collections`` in ``tree``,
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
            where = (".".join(scope), getattr(child, "lineno", None))
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and MESSAGE in child.value and id(child) not in docstrings):
                uses.append((*where, MESSAGE))
            elif isinstance(child, ast.ImportFrom) and child.module == "collections" and any(
                alias.name == "Counter" for alias in child.names
            ):
                uses.append((*where, "Counter"))
            elif (isinstance(child, ast.Attribute) and child.attr == "Counter"
                  and isinstance(child.value, ast.Name) and child.value.id == "collections"):
                uses.append((*where, "Counter"))
            visit(child, scope)

    visit(tree, ())
    return uses


def test_the_guard_sees_each_kind_of_use():
    source = (
        '"""Ids must be distinct."""\n'
        "import collections\n"
        "from collections import Counter, defaultdict\n"
        "def f(ids):\n"
        '    """Raise unless ids must be distinct."""\n'
        '    raise ValueError(f"{ids} must be distinct; repeated: {ids}")\n'
        "class C:\n"
        "    def g(self, values):\n"
        "        return collections.Counter(values), collections.defaultdict(int)\n"
        "X = 'batch sizes must be distinct'\n"
    )
    assert id_check_uses(ast.parse(source)) == [
        ("", 3, "Counter"), ("f", 6, MESSAGE), ("C.g", 9, "Counter"), ("", 10, MESSAGE),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_checks_ids_only_through_require_distinct(path):
    uses = id_check_uses(ast.parse(path.read_text(encoding="utf-8")))
    stray = [(line, f"{what} in {function or 'module scope'}") for function, line, what in uses
             if what == "Counter" or (path.name, function) not in ALLOWED]
    assert not stray, f"{path.name} checks for repeats outside require_distinct: " + ", ".join(
        f"line {line}: {what}" for line, what in stray
    )


def test_require_distinct_still_builds_the_message():
    found = {
        (path.name, function)
        for path in MODULES
        for function, _, what in id_check_uses(ast.parse(path.read_text(encoding="utf-8")))
        if what == MESSAGE
    }
    assert found == ALLOWED
