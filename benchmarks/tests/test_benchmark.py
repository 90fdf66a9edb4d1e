"""Tests of the benchmark itself: planted defects must be caught, every
workload must print every metric BENCHMARK.json names, the input streams
must be distinct, and span self times must add up to the traced wall time."""

import itertools
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer

BENCH = run.ROOT / "benchmarks"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failed_frac(wl) -> tuple[float, list[str]]:
    """Timed blocks plus reference checks, as the benchmark counts them."""
    loop = run.timed_loop(wl, 0.01)
    checks, ref_errors = run.run_references(wl)
    assert not loop.errors and not ref_errors
    attempted = len(loop.times) * wl.block_replicas + len(checks)
    failed = loop.failed + sum(not ok for _, ok in checks)
    return failed / attempted, [label for label, ok in checks if not ok]


def inverting_every(cls, k):
    def functional(self):
        f = cls.functional(self)
        calls = itertools.count(1)

        def g(cfg):
            v = f(cfg)
            return 1.0 - v if next(calls) % k == 0 else v

        return g

    return functional


class DropProbe:
    """An oracle that reports its first inside probe as outside."""

    def __init__(self, oracle):
        self._oracle = oracle

    def contains(self, xs, config):
        out = self._oracle.contains(xs, config).copy()
        inside = np.flatnonzero(out)
        if inside.size:
            out[inside[0]] = False
        return out

    def __getattr__(self, name):
        return getattr(self._oracle, name)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_workloads_pass_their_checks(cls):
    frac, bad = failed_frac(cls(7, tiny=True))
    assert frac == 0.0 and bad == []


@pytest.mark.parametrize("cls", [workloads.CrossingLarge, workloads.PoincareSmall])
def test_crossing_reference_catches_an_inverted_crossing(cls):
    planted = type("Planted", (cls,), {"functional": inverting_every(cls, 50),
                                       "TINY": cls.TINY | {"reference_configs": 60}})
    frac, bad = failed_frac(planted(7, tiny=True))
    assert frac > 0 and any(label.startswith("crossing[") for label in bad)


def test_poincare_verdict_catches_a_functional_that_skips_calls():
    def functional(self):
        f = workloads.PoincareSmall.functional(self)
        calls = itertools.count()
        return lambda cfg: f(cfg) if next(calls) % 3 == 0 else 0.0

    planted = type("Planted", (workloads.PoincareSmall,), {"functional": functional})
    frac, bad = failed_frac(planted(7, tiny=True))
    assert frac > 0 and "poincare_verdict" in bad


def test_exploration_reference_catches_a_dropped_probe():
    planted = type("Planted", (workloads.StoppingSuite,),
                   {"wrap": lambda self, oracle: DropProbe(oracle)})
    frac, bad = failed_frac(planted(7, tiny=True))
    assert frac > 0
    assert {label.split("[")[0] for label in bad} == {"line", "sphere", "family"}


def test_confetti_reference_catches_a_flipped_cell():
    def repaint(self, world):
        black = workloads.ConfettiDuality.repaint(self, world)
        black[0, 0] = ~black[0, 0]
        return black

    planted = type("Planted", (workloads.ConfettiDuality,), {"repaint": repaint})
    frac, bad = failed_frac(planted(7, tiny=True))
    assert frac > 0 and all(label.startswith("repaint[") for label in bad)


def test_workload_streams_are_pairwise_distinct():
    keys = [(w.index, purpose, *i)
            for w in workloads.WORKLOADS.values()
            for purpose in (workloads.TIMED, workloads.REFERENCE, workloads.WARMUP)
            for i in ((), (0,), (1,), (2,), (1, 1))]
    draws = {tuple(workloads.stream(0, *key).integers(0, 2**63, size=4)) for key in keys}
    assert len(draws) == len(keys)
    assert len({w.index for w in workloads.WORKLOADS.values()}) == len(workloads.WORKLOADS)
    assert run.NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_span_self_times_sum_to_traced_wall_time(cls):
    tracer = Tracer()
    wl = cls(7, tracer=tracer, tiny=True)
    with tracer.root():
        run.timed_loop(wl, 0.01, tracer)
    assert math.isclose(sum(tracer.self_s.values()), tracer.wall_s(), rel_tol=1e-9)
    metrics = tracer.metrics()
    assert not any(v for k, v in metrics.items() if k.endswith(".errors"))
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "poincare-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
