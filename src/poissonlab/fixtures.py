"""Named experiment fixtures: every number in the docs regenerates by name.

A fixture is a flat dict of JSON-able parameters plus a builder; the CLI
resolves names through :data:`REGISTRY`.
"""

from __future__ import annotations

import math

import numpy as np

from .percolation import (
    BooleanModel,
    BooleanWorld,
    ConfettiModel,
    FixedRadius,
    GrainSpec,
    ParetoRadius,
    UniformRadius,
    crossing,
)
from .process import (
    BoxWindow,
    CellIntensity,
    DiscreteWindow,
    HomogeneousIntensity,
    ProcessSpec,
    RadiusMarks,
)
from .stopping import LineSeed, component_exploration, probe_grid, randomize, revealment

CROSSING_RADIUS = 1.0
LINE_PROBE_SPACING = 0.5

REGISTRY: dict[str, dict] = {
    # sampling
    "poisson-square": {
        "kind": "sample",
        "gamma": 2.0,
        "window": [0.0, 0.0, 1.0, 1.0],
    },
    "poisson-disks": {
        "kind": "sample",
        "gamma": 0.36,
        "window": [0.0, 0.0, 10.0, 10.0],
        "radius": [0.5, 1.0],
    },
    "poisson-cells": {
        "kind": "sample",
        "masses": [0.5, 0.3, 0.2],
    },
    # stopping audits
    "ball-growth": {"kind": "stopping", "area": 1.0},
    "line-exploration": {"kind": "stopping", "n": 6, "gamma": 0.36},
    "nonattainable": {"kind": "stopping", "masses": [0.5, 0.3, 0.2]},
    "broken-nearest": {"kind": "stopping", "area": 1.0},
    # chaos audits
    "poincare-empty-space": {"kind": "chaos", "area": 1.0},
    "osss-empty-space": {"kind": "chaos", "area": math.pi},
    "sqrt-osss-empty-space": {"kind": "chaos", "area": 1.0},
    "mehler-count": {"kind": "chaos", "mass": 2.0},
    "chaos-3cell-exact": {"kind": "chaos", "masses": [0.5, 0.3, 0.2]},
    "cond-moment-nonattainable": {"kind": "chaos", "masses": [0.5, 0.3, 0.2]},
    # dynamics
    "birth-death-small": {
        "kind": "dynamics",
        "gamma": 3.0,
        "window": [0.0, 0.0, 1.0, 1.0],
        "horizon": 2.0,
    },
    "crossing-exceptional": {
        "kind": "dynamics",
        "gamma": 0.36,
        "n": 8,
        "horizon": 1.0,
    },
    # percolation models
    "boolean-k1": {"kind": "perc", "model": "boolean", "k": 1, "radius": 1.0},
    "boolean-k2": {"kind": "perc", "model": "boolean", "k": 2, "radius": 1.0},
    "boolean-pareto": {
        "kind": "perc",
        "model": "boolean",
        "k": 1,
        "pareto": [0.5, 3.5],
    },
    "confetti-symmetric": {"kind": "perc", "model": "confetti", "radius": 1.0},
}


def get(name: str) -> dict:
    if name not in REGISTRY:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return dict(REGISTRY[name], name=name)


def boolean_model(fx: dict, gamma: float) -> BooleanModel:
    if "pareto" in fx:
        law = ParetoRadius(*fx["pareto"])
    elif isinstance(fx.get("radius"), list):
        law = UniformRadius(*fx["radius"])
    else:
        law = FixedRadius(fx.get("radius", 1.0))
    return BooleanModel(gamma, GrainSpec("ball", law), k=fx.get("k", 1))


def confetti_model(fx: dict, p: float) -> ConfettiModel:
    law = FixedRadius(fx.get("radius", 1.0))
    return ConfettiModel(p, GrainSpec("ball", law), GrainSpec("ball", law))


def sample_process(fx: dict) -> ProcessSpec:
    if "masses" in fx:
        return ProcessSpec(
            CellIntensity(tuple(fx["masses"])), DiscreteWindow(len(fx["masses"]))
        )
    lo_x, lo_y, hi_x, hi_y = fx["window"]
    window = BoxWindow((lo_x, lo_y), (hi_x, hi_y))
    marks = None
    if "radius" in fx:
        marks = RadiusMarks(UniformRadius(*fx["radius"]))
    return ProcessSpec(HomogeneousIntensity(fx["gamma"], marks), window)


def empty_space_setup(area: float):
    """Window, process, region, indicator functional for lambda(W)=area."""
    r_w = math.sqrt(area / math.pi)
    half = r_w + 0.15
    window = BoxWindow((-half, -half), (half, half))
    process = ProcessSpec(HomogeneousIntensity(1.0), window)

    def region(p):
        return np.linalg.norm(np.atleast_2d(p), axis=1) <= r_w

    def f(cfg):
        return 1.0 if cfg.count_in(region) == 0 else 0.0

    return window, process, region, f


def crossing_setup(n: float, gamma: float):
    """Unit-disk Boolean model on the n x n square: the model, the square,
    the square padded by the radius (the sampling window), the process and
    the left-right crossing indicator."""
    model = boolean_model({"radius": CROSSING_RADIUS}, gamma)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    padded = rect.pad(CROSSING_RADIUS)
    process = ProcessSpec(
        HomogeneousIntensity(gamma, RadiusMarks(FixedRadius(CROSSING_RADIUS))),
        padded,
    )

    def f(cfg):
        return 1.0 if crossing(BooleanWorld(cfg, model, rect)) else 0.0

    return model, rect, padded, process, f


def line_revealment(n: float, gamma: float, samples: int, rng: np.random.Generator):
    """Revealment of the crossing setup's line exploration from the line
    {x_0 = U}, U uniform on [0, n] and drawn afresh per sample, on the probe
    grid of spacing ``LINE_PROBE_SPACING`` over the n x n square."""
    model, rect, _, process, _ = crossing_setup(n, gamma)
    family = lambda s: component_exploration(model, rect, LineSeed(0, s))
    rz = randomize(family, lambda r: float(r.uniform(0.0, float(n))))
    grid = probe_grid(rect, LINE_PROBE_SPACING)
    return revealment(rz, process, grid, samples, rng, LINE_PROBE_SPACING)
