"""The benchmark's set-up still runs against the package.

``perfbench/workloads.py`` synthesizes every workload's dataset with
``SynthSpec.homogeneous`` and ``sample_dataset`` and writes it with
``io.save_dataset``.  A change to those calls would otherwise show only in the
benchmark's own tests.  The module is loaded by path, as the benchmark's
directory is not a package.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from approvalmle import io

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_dataset_is_written_and_read_back(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    shape = workload.tiny
    dataset = workloads.write_dataset(workload, shape, 1, tmp_path)
    profile, ground_truth = io.load_dataset(dataset)
    assert profile.approvals.shape == (shape.instances, shape.n, shape.m)
    truths = json.loads((tmp_path / "truths.json").read_text(encoding="utf-8"))
    assert list(truths) == list(profile.instance_ids)
    assert all(shape.lower <= len(truth) <= shape.upper for truth in truths.values())
    if workload.suffix == ".csv":
        assert ground_truth is None
    else:
        alt_ids = profile.alternative_ids
        assert [sorted(alt_ids[j] for j in truth) for truth in ground_truth] == [
            sorted(truth) for truth in truths.values()
        ]
