"""Differential tests of the exploration oracle and CTDT against the dense
probes x grains distance formulas they replace.

The library answers membership from a kd-tree over the revealed grains;
the references here rebuild the world on every call and take the minimum of
the full distance matrix, as the oracle once did. Agreement must
be exact, including on probes planted at exactly ``dilation + r`` from a
centre and on the edge of the seed band.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    FixedRadius,
    GrainSpec,
    UniformRadius,
)
from poissonlab.process import BoxWindow, PointConfig
from poissonlab.stopping import (
    ExplorationCTDT,
    LineSeed,
    SphereSeed,
    _explore_levels,
    component_exploration,
)

SPAN = 8.0
RECT = BoxWindow((1.0, 1.0), (SPAN - 1.0, SPAN - 1.0))
WINDOW = BoxWindow((0.0, 0.0), (SPAN, SPAN))
# Multiples of 1/16 keep planted distances exact, so ties reach the test.
dyadic = st.integers(0, int(16 * SPAN)).map(lambda k: k / 16.0)
coord = st.one_of(dyadic, st.floats(0.0, SPAN, allow_nan=False))


def dense_contains(oracle, xs, config):
    """Membership by the dense formula: seed band, or within ``dilation`` of
    a grain of the components meeting the seed."""
    xs = np.atleast_2d(xs)
    world = BooleanWorld(config, oracle.model, oracle.rect)
    out = oracle.seed.distance(xs) <= oracle.dilation
    comp = np.flatnonzero(world.component_mask(oracle.seed.touching(world)))
    if len(comp):
        d = np.linalg.norm(
            xs[:, None, :] - world.points[None, comp, :], axis=2
        ) - world.radii[comp][None, :]
        out |= d.min(axis=1) <= oracle.dilation
    return out


def dense_dist(xs, seed, world, grains):
    d = seed.distance(xs)
    if len(grains):
        dg = np.linalg.norm(
            xs[:, None, :] - world.points[None, grains, :], axis=2
        ) - world.radii[grains][None, :]
        d = np.minimum(d, dg.min(axis=1))
    return d


def dense_membership_at(ctdt, t, xs, config):
    """Round-interpolated exploration by the dense formula."""
    xs = np.atleast_2d(xs)
    world = BooleanWorld(config, ctdt.model, ctdt.rect)
    levels = _explore_levels(world, ctdt.seed)
    m = int(math.floor(t))
    if m >= len(levels):
        grains = levels[-1] if levels else np.empty(0, dtype=int)
        return dense_dist(xs, ctdt.seed, world, grains) <= ctdt.step
    out = np.zeros(len(xs), dtype=bool)
    if m >= 1:
        out |= dense_dist(xs, ctdt.seed, world, levels[m - 1]) <= ctdt.step
    out |= dense_dist(xs, ctdt.seed, world, levels[m]) <= ctdt.step * (t - m)
    return out


@st.composite
def models(draw):
    if draw(st.booleans()):
        law = FixedRadius(draw(st.sampled_from([0.25, 0.5, 1.0, 1.25])))
    else:
        lo = draw(st.sampled_from([0.125, 0.25, 0.5]))
        law = UniformRadius(lo, lo * draw(st.sampled_from([1.5, 2.0, 4.0])))
    return BooleanModel(1.0, GrainSpec("ball", law), k=1)


@st.composite
def configs(draw, model):
    n = draw(st.integers(0, 40))
    points = np.array(
        draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=float
    ).reshape(n, 2)
    law = model.grain.law
    if isinstance(law, FixedRadius):
        radii = np.full(n, law.r)
    else:
        radius = st.one_of(
            st.sampled_from([law.lo, law.hi]), st.floats(law.lo, law.hi)
        )
        radii = np.array(draw(st.lists(radius, min_size=n, max_size=n)), dtype=float)
    return PointConfig(WINDOW, points, {"radius": radii})


seeds = st.one_of(
    st.builds(LineSeed, st.integers(0, 1), coord),
    st.builds(SphereSeed, st.one_of(dyadic, st.floats(0.0, 1.5 * SPAN))),
)


def planted_probes(draw, config, seed, dilation):
    """Random probes plus probes at exactly ``dilation + r`` from a centre
    (offset along an axis) and exactly on the edge of the seed band."""
    k = draw(st.integers(0, 30))
    xs = [draw(st.tuples(coord, coord)) for _ in range(k)]
    planted = st.lists(st.integers(0, config.size - 1), max_size=8)
    for i in draw(planted) if config.size else []:
        c = config.points[i]
        reach = dilation + config.marks["radius"][i]
        axis = draw(st.integers(0, 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        x = c.copy()
        x[axis] += sign * reach
        xs.append(tuple(x))
    for _ in range(draw(st.integers(0, 4))):
        along = draw(coord)
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if isinstance(seed, LineSeed):
            x = [along, along]
            x[seed.axis] = seed.coord + sign * dilation
        else:
            x = [0.0, 0.0]
            x[draw(st.integers(0, 1))] = sign * (seed.s + dilation)
        xs.append(tuple(x))
    return np.array(xs, dtype=float).reshape(len(xs), 2)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_contains_matches_dense_formula(data):
    model = data.draw(models())
    seed = data.draw(seeds)
    dilation = data.draw(
        st.one_of(st.just(None), st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
    )
    oracle = component_exploration(model, RECT, seed, dilation)
    a = data.draw(configs(model))
    xs = planted_probes(data.draw, a, seed, oracle.dilation)
    if data.draw(st.booleans()):
        b = PointConfig(WINDOW, a.points.copy(), {"radius": a.marks["radius"].copy()})
    else:
        b = data.draw(configs(model))
    for cfg in (a, b, a):
        got = oracle.contains(xs, cfg)
        assert got.shape == (len(xs),) and got.dtype == bool
        assert np.array_equal(got, dense_contains(oracle, xs, cfg))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ctdt_membership_matches_dense_formula(data):
    model = data.draw(models())
    seed = data.draw(seeds)
    ctdt = ExplorationCTDT(model, RECT, seed)
    cfg = data.draw(configs(model))
    xs = planted_probes(data.draw, cfg, seed, ctdt.step)
    ts = np.concatenate([np.linspace(0.0, 6.0, 25), [data.draw(st.floats(0.0, 8.0))]])
    for t in ts:
        got = ctdt.membership_at(t, xs, cfg)
        assert np.array_equal(got, dense_membership_at(ctdt, t, xs, cfg))
