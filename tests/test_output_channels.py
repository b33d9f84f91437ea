"""Only the command-line module prints.

Every other package module hands a message to its caller as an exception or
through ``warnings.warn``, which ``cli.main`` prints as one ``warning:`` line:
none of them calls ``print`` or names ``sys.stdout`` or ``sys.stderr``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approvalmle"
LIBRARY = sorted(path for path in PACKAGE.glob("*.py") if path.name != "cli.py")
STREAMS = {"stdout", "stderr"}


def terminal_uses(tree: ast.Module) -> list:
    """``(line, what)`` for each use of ``print``, ``sys.stdout`` or
    ``sys.stderr`` in ``tree``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            uses.append((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            uses.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            uses += [(node.lineno, f"sys.{alias.name}") for alias in node.names
                     if alias.name in STREAMS]
    return sorted(uses)


def test_the_guard_sees_each_kind_of_use():
    source = (
        "import sys\nfrom sys import stderr\n"
        "def f(w):\n    print(w, file=sys.stderr)\n    sys.stdout.write(w)\n    show = print\n"
    )
    assert terminal_uses(ast.parse(source)) == [
        (2, "sys.stderr"), (4, "print"), (4, "sys.stderr"), (5, "sys.stdout"), (6, "print"),
    ]


@pytest.mark.parametrize("path", LIBRARY, ids=[path.stem for path in LIBRARY])
def test_library_module_does_not_print(path):
    uses = terminal_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not uses, f"{path.name} writes to the terminal: " + ", ".join(
        f"line {line}: {what}" for line, what in uses
    )
