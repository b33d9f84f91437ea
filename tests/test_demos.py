"""The demo scripts run end to end; they use the public ``Profile`` fields."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["01_worked_example.py", "02_synthetic_study.py", "03_files_and_cli.py"]
)
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if script == "01_worked_example.py":
        # the manual round prints each truth row's alternative ids; a row
        # read as indices would name the wrong ones or fail
        manual = done.stdout.split("=== one manual round")[1].splitlines()[1:5]
        assert manual == [
            "  z1: ['a2', 'a4']",
            "  z2: ['a2', 'a5']",
            "  z3: ['a2', 'a3']",
            "  z4: ['a1', 'a3']",
        ]
