"""Every name a package module imports is used in that module.

The only exceptions are the names the benchmark's tracer
(``perfbench/tracer.py``) wraps on the module: the tracer replaces them in
the module's namespace, so the module must import them even where it does
not call them itself.  The tracer is loaded by path, as the benchmark's
directory is not a package.
"""

import ast
from pathlib import Path

import pytest
from test_tracer_entry_points import load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

tracer = load_tracer()
WRAPPED = {(owner, attribute) for _, owner, attribute in (*tracer.ENTRY_POINTS, *tracer.COUNTED)}


def imported_names(tree: ast.Module) -> set:
    """The names the module's import statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = f"approvalmle.{path.stem}"
    unused = {name for name in imported_names(tree) - used if (module, name) not in WRAPPED}
    assert not unused, f"{path.name} imports names it does not use: {sorted(unused)}"
