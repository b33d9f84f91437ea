"""Run the ``>>>`` examples in the docstrings of every approvalmle module."""

import doctest
import importlib
import pkgutil

import pytest

import approvalmle

MODULES = ["approvalmle"] + sorted(
    name for _, name, _ in pkgutil.iter_modules(approvalmle.__path__, "approvalmle.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_known_examples_are_found():
    # guards against a discovery change that would silently run nothing
    attempted = {
        name: doctest.testmod(importlib.import_module(name)).attempted
        for name in ("approvalmle.metrics", "approvalmle.priors")
    }
    assert all(count > 0 for count in attempted.values()), attempted
