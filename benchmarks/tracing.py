"""Spans recorded by the benchmark around its calls into the library.

A span has a name, a start, an end, a parent and a replica id. Spans are
kept in memory and written out when the run ends. A span's self time is
its duration minus the time its child spans cover, so the self times of
all spans under the root add up to the root's wall time.

Spans are recorded only while the root span is open: set-up, warm-up and
the reference checks leave no spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

_NULL = nullcontext()

# Layer metrics reported for every workload, in BENCHMARK.json order; a layer
# a workload does not call reports zero calls. "driver" is the root span: the
# benchmark's own replica loop, standing in for the acceptance runner and the
# command line. "calibration" is the fixed loop timed next to every block,
# kept apart so that it does not count as driver overhead.
SPANS = (
    "chaos.chaos_weights_mehler",
    "chaos.poincare_audit",
    "percolation.world",
    "percolation.crossing",
    "percolation.sample_confetti_world",
    "percolation.confetti_duality_check",
    "stopping.verify_stopping_axiom",
    "stopping.revealment",
    "stopping.contains",
    "driver",
    "calibration",
)
_CALLS = {s for s in SPANS if not s.startswith(("chaos.", "driver", "calibration"))}
_PERCENTILES = ("percolation.crossing", "percolation.sample_confetti_world",
                "stopping.contains")
# (metric, note keys, kind): "mean" averages the noted values per call,
# "sum" totals them, "frac" divides the first key's total by the second's.
_NOTES = (
    ("percolation.world.grains_mean", "percolation.world.grains", "mean"),
    ("percolation.crossing.true_frac", "percolation.crossing.true", "mean"),
    ("percolation.sample_confetti_world.grains_mean",
     "percolation.sample_confetti_world.grains", "mean"),
    ("percolation.sample_confetti_world.cells",
     "percolation.sample_confetti_world.cells", "mean"),
    ("stopping.verify_stopping_axiom.failures",
     "stopping.verify_stopping_axiom.failures", "sum"),
    ("stopping.contains.probes", "stopping.contains.probes", "sum"),
    ("stopping.contains.inside_frac",
     ("stopping.contains.inside", "stopping.contains.probes"), "frac"),
    ("process.config.points_mean", "process.config.points", "mean"),
)


class _Span:
    __slots__ = ("tracer", "name", "start", "child")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.child = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        duration = end - self.start
        parent = tr._stack[-1] if tr._stack else None
        if parent is not None:
            parent.child += duration
        tr.spans.append((self.name, self.start, end,
                         parent.name if parent is not None else None,
                         tr.replica, exc_type is not None))
        tr.self_s[self.name] += duration - self.child
        return False


class Tracer:
    """In-memory span recorder with per-name aggregates and noted counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.replica = 0
        self._stack: list[_Span] = []
        self._notes: dict[str, list[float]] = defaultdict(list)

    def root(self) -> _Span:
        """The outermost span; everything recorded nests inside it."""
        if self._stack:
            raise RuntimeError("the root span is already open")
        return _Span(self, "driver")

    def span(self, name: str):
        return _Span(self, name) if self._stack else _NULL

    def note(self, key: str, value: float) -> None:
        """Record a per-call value (grains, points, probes) under ``key``."""
        if self._stack:
            self._notes[key].append(float(value))

    # -- summaries ---------------------------------------------------------

    def wall_s(self) -> float:
        roots = [s for s in self.spans if s[3] is None]
        return sum(s[2] - s[1] for s in roots)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, with zeros for layers never called."""
        durations: dict[str, list[float]] = defaultdict(list)
        errors: dict[str, int] = defaultdict(int)
        for name, start, end, _, _, failed in self.spans:
            durations[name].append(end - start)
            errors[name] += failed
        out: dict[str, float] = {}
        for name in SPANS:
            if name in _CALLS:
                out[f"{name}.calls"] = len(durations[name])
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            if name in _PERCENTILES:
                ms = np.asarray(durations[name]) * 1e3
                out[f"{name}.ms_p50"] = float(np.percentile(ms, 50)) if len(ms) else 0.0
                out[f"{name}.ms_p99"] = float(np.percentile(ms, 99)) if len(ms) else 0.0
            out[f"{name}.errors"] = errors[name]
        for metric, key, kind in _NOTES:
            if kind == "frac":
                part, total = (float(np.sum(self._notes.get(k, []))) for k in key)
                out[metric] = part / total if total else 0.0
                continue
            vals = self._notes.get(key, [])
            if kind == "mean":
                out[metric] = float(np.mean(vals)) if vals else 0.0
            else:
                out[metric] = float(np.sum(vals))
        return out

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: name, start, end, parent, replica, error."""
        return [list(s) for s in self.spans]
