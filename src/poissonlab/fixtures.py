"""Named experiment fixtures: every number in the docs regenerates by name.

This module is the one place where a setup used by more than one of the
acceptance suite, the command line and the demos is built: the empty-space
functional, the 3-cell space with the non-attainable stopping set, the
counting functional, the unit-disk crossing and its line exploration, and
the confetti model.

A fixture is a flat dict of JSON-able parameters plus a builder; the CLI
resolves names through :data:`REGISTRY`.  Each entry has a kind (``sample``,
``stopping``, ``chaos``, ``dynamics`` or ``perc``), and each command accepts
only fixtures of its own kind: :func:`get` refuses the others.
"""

from __future__ import annotations

import math

import numpy as np

from .chaos import DiscreteOracleSpace
from .percolation import (
    BooleanModel,
    BooleanWorld,
    ConfettiModel,
    FixedRadius,
    GrainSpec,
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
from .stopping import (
    LineSeed,
    component_exploration,
    nonattainable_fixture,
    probe_grid,
    randomize,
    revealment,
)

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
    "confetti-symmetric": {"kind": "perc", "model": "confetti", "radius": 1.0},
}


def get(name: str, kind: str) -> dict:
    """The entry ``name`` with its name added; a ValueError if there is no
    such entry or it is not of ``kind``."""
    if name not in REGISTRY:
        known = sorted(k for k, fx in REGISTRY.items() if fx["kind"] == kind)
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(known)}")
    if REGISTRY[name]["kind"] != kind:
        raise ValueError(
            f"fixture {name!r} is a {REGISTRY[name]['kind']} fixture, not {kind}"
        )
    return dict(REGISTRY[name], name=name)


def boolean_model(fx: dict, gamma: float) -> BooleanModel:
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


def counting_setup(mass: float):
    """Process of total mass ``mass`` on the unit square, the counting
    functional (pure first chaos) and the Mehler times of its audits."""
    process = ProcessSpec(HomogeneousIntensity(mass), BoxWindow((0.0, 0.0), (1.0, 1.0)))
    times = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    return process, lambda cfg: float(cfg.size), times


def three_cell_setup(masses):
    """Exact-enumeration space on the cells of ``masses`` (Poisson tails cut
    below 1e-14) and the indicator that cells 0 and 1 are both empty."""
    space = DiscreteOracleSpace(tuple(masses), tail_bound=1e-14)

    def f_counts(counts):
        counts = np.atleast_2d(counts)
        return ((counts[:, 0] + counts[:, 1]) == 0).astype(float)

    return space, f_counts


def cond_moment_setup(masses):
    """The 3-cell space, the non-attainable stopping set on it and the
    first-order kernel of the conditional-moment audits."""
    space, _ = three_cell_setup(masses)
    return space, nonattainable_fixture(masses), np.array([1.0, -0.7, 0.4])


def crossing_setup(n: float, gamma: float):
    """Unit-disk Boolean model on the n x n square: the model, the square,
    the process on the square padded by the radius and the left-right
    crossing indicator."""
    model = boolean_model({"radius": CROSSING_RADIUS}, gamma)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    process = ProcessSpec(
        HomogeneousIntensity(gamma, RadiusMarks(FixedRadius(CROSSING_RADIUS))),
        rect.pad(CROSSING_RADIUS),
    )

    def f(cfg):
        return 1.0 if crossing(BooleanWorld(cfg, model, rect)) else 0.0

    return model, rect, process, f


def dynamics_setup(fx: dict):
    """The process a dynamics fixture's birth-death path runs on, and the
    functional whose flips along it are its exceptional times: the crossing
    setup's radius-padded, radius-marked process and its crossing indicator
    for ``crossing-exceptional``, the plain process of ``window`` and the
    parity of the count otherwise."""
    if fx["name"] == "crossing-exceptional":
        _, _, process, f = crossing_setup(fx["n"], fx["gamma"])
        return process, f
    return sample_process(fx), lambda cfg: float(cfg.size % 2)


def line_exploration_setup(n: float, gamma: float):
    """The crossing setup's model, square and process, and the exploration
    of the occupied cluster of the vertical line through the square's middle."""
    model, rect, process, _ = crossing_setup(n, gamma)
    return model, rect, process, component_exploration(model, rect, LineSeed(0, n / 2))


def line_revealment(n: float, gamma: float, samples: int, rng: np.random.Generator):
    """Revealment of the crossing setup's line exploration from the line
    {x_0 = U}, U uniform on [0, n] and drawn afresh per sample, on the probe
    grid of spacing ``LINE_PROBE_SPACING`` over the n x n square."""
    model, rect, process, _ = crossing_setup(n, gamma)
    family = lambda s: component_exploration(model, rect, LineSeed(0, s))
    rz = randomize(family, lambda r: float(r.uniform(0.0, float(n))))
    grid = probe_grid(rect, LINE_PROBE_SPACING)
    return revealment(rz, process, grid, samples, rng, LINE_PROBE_SPACING)
