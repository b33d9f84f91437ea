"""Every name the benchmark's tracer wraps still exists where it looks.

``perfbench/tracer.py`` records a wrapped name that no longer exists as an
unobserved layer instead of failing, so a refactor that drops or moves one
(say ``approvalmle.likelihood.cardinality_mass``) would otherwise show only
in the benchmark's own tests.  The tracer is loaded by path, as the
benchmark's directory is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
WRAPPED = [(owner, attribute) for _, owner, attribute in (*tracer.ENTRY_POINTS, *tracer.COUNTED)]


@pytest.mark.parametrize(
    "owner, attribute", WRAPPED, ids=[f"{owner}.{attribute}" for owner, attribute in WRAPPED]
)
def test_wrapped_name_is_defined_on_its_owner(owner, attribute):
    resolved = tracer._resolve(owner)
    assert resolved is not None, f"{owner} does not resolve"
    # the tracer replaces the attribute in the owner's own namespace
    assert vars(resolved).get(attribute) is not None, f"{owner} defines no {attribute}"
