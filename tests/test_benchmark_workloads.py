"""The benchmark's workloads still run on the library.

``benchmarks/workloads.py`` calls the library through its public
estimators, but the benchmark's own tests lie outside ``testpaths``. This
builds each workload at its ``TINY`` sizes (set-up and warm-up), runs one
timed block and its reference checks, and asserts that none fails, so a
removed or renamed name that a workload uses fails here too.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# workloads.py imports its sibling ``reference`` by bare name; that name is
# bound only while workloads.py loads, and sys.path is left as it was
with mock.patch.dict(sys.modules, {"reference": _load("reference")}):
    workloads = _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_a_block_and_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](7, tiny=True)
    failed, _ = wl.block(wl.rng(workloads.TIMED, 0), wl.block_replicas)
    checks = wl.references()
    assert failed == 0 and checks
    assert [label for label, ok in checks if not ok] == []
