"""Acceptance suite: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` (or `poissonlab
acceptance`).  Seeds are pinned inside poissonlab.acceptance; tolerances
are the stated ones, nothing is recalibrated here.

Every result must also equal its entry in the committed record
ACCEPTANCE.json (written by `poissonlab acceptance -o ACCEPTANCE.json`):
the same name, verdict and canonical details.  Only a change that means to
move the random draws regenerates the record.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from poissonlab import acceptance
from poissonlab.cli import _provenance

RECORD = json.loads(
    (Path(__file__).resolve().parents[1] / "ACCEPTANCE.json").read_text()
)
ENTRIES = {e["name"].split()[0]: e for e in RECORD["criteria"]}


def first_difference(run, record, path="details"):
    """The first leaf, in sorted key order, where two JSON values differ
    (leaves are compared as JSON text, so 1 differs from true and from 1.0)."""
    if isinstance(run, dict) and isinstance(record, dict):
        for key in sorted(set(run) | set(record)):
            if key not in run or key not in record:
                return f"{path}.{key}: present in only one of run and record"
            found = first_difference(run[key], record[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(run, list) and isinstance(record, list) and len(run) == len(record):
        for i, (a, b) in enumerate(zip(run, record)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if json.dumps(run) != json.dumps(record):
        return f"{path}: run {json.dumps(run)} != record {json.dumps(record)}"
    return None


def test_record_covers_every_criterion():
    assert list(ENTRIES) == list(acceptance.ALL_CRITERIA)


@pytest.mark.parametrize("name", list(acceptance.ALL_CRITERIA))
def test_criterion(name):
    result = acceptance.ALL_CRITERIA[name]()
    print(result.line())
    got, want = result.record(), ENTRIES[name]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), (
        f"{first_difference(got['details'], want['details'])}; verdict "
        f"{got['passed']} (record {want['passed']}); provenance of this run "
        f"{_provenance()}, of the record {RECORD['provenance']}"
    )
    assert result.passed, json.dumps(result.details, indent=2, default=str)


def test_run_pools_the_criteria_and_keeps_the_order_asked(monkeypatch):
    """Two usable cores, whatever the machine has, so a pool of two workers
    runs; each result equals its record, in the order asked."""
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(acceptance, "_usable_cores", lambda: 2)
    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", Pool)
    names = ["3", "6", "11"]
    results = acceptance.run(names)
    assert pools == [2]
    assert [r.name.split()[0] for r in results] == names
    for name, result in zip(names, results):
        assert json.dumps(result.record(), sort_keys=True) == json.dumps(
            ENTRIES[name], sort_keys=True)
