"""Differential tests of the exploration oracle, and of the grain index
behind it, against the dense probes x grains distance formulas they
replace.

The library answers membership through ``_GrainIndex.near``: one broadcast
test of every pair for small probe sets, and a sweep over probes sorted by
(x-strip, y) for large ones. The references here rebuild the world on every
call and take the minimum of the full distance matrix, as the oracle once
did. Agreement must be exact, including on probes planted at exactly
``dilation + r`` from a centre and on the edge of the seed band. The oracle
cases use 8 x 8 windows and so reach only the dense test; the grain-index
case below also covers the sweep, on strip edges, on windows of span 1e4 and
with a wide spread of radii.

The block evaluation, one block world for many configurations, is checked
against the oracle asked one configuration at a time, and the block
world's components against each configuration's own world.
"""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    FixedRadius,
    GrainSpec,
    ParetoRadius,
    UniformRadius,
)
from poissonlab.process import BoxWindow, PointConfig
from poissonlab.stopping import (
    _BLOCK,
    _DENSE_MAX,
    LineSeed,
    SphereSeed,
    _GrainIndex,
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


@st.composite
def blocks(draw):
    """(members, configs, probes): 1 to ``_BLOCK + 1`` configurations of
    one model on the 8 x 8 window, with ball or box grains and fixed,
    uniform or Pareto radii (those with an explicit dilation), of 0 to 30
    grains each, so that about half the blocks take the tree path and
    Pareto blocks there have grains above the reference reach; one
    exploration per configuration, with its own line (possibly one that
    meets no grain, at -100) or sphere seed, or one seed for all; and per
    configuration random probes, its grain centres and probes at exactly
    dilation + r from a centre."""
    kind = draw(st.sampled_from(["ball", "box"]))
    law_kind = draw(st.sampled_from(["fixed", "uniform", "pareto"]))
    dyadic_coords = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def exact(x):
        return np.round(x * 16.0) / 16.0 if dyadic_coords else x

    if law_kind == "fixed":
        law = FixedRadius(draw(st.sampled_from([0.25, 0.5, 1.0])))
    elif law_kind == "uniform":
        law = UniformRadius(0.25, draw(st.sampled_from([0.5, 1.0])))
    else:
        law = ParetoRadius(draw(st.sampled_from([0.125, 0.25])), 2.5)
    model = BooleanModel(1.0, GrainSpec(kind, law), k=1)
    dilation = draw(st.sampled_from([0.0, 0.5, 1.0])) if law_kind == "pareto" else (
        draw(st.sampled_from([None, 0.0, 0.5])))
    configs = []
    for _ in range(draw(st.integers(1, _BLOCK + 1))):
        n = draw(st.sampled_from([0, 1, 3, 12, 30]))
        if law_kind == "fixed":
            radii = np.full(n, law.r)
        elif law_kind == "uniform":
            radii = exact(rng.uniform(law.lo, law.hi, n))
        else:
            radii = exact(law.sample(rng, n))
        points = exact(rng.uniform(0.0, SPAN, (n, 2)))
        configs.append(PointConfig(WINDOW, points, {"radius": radii}))
    line = st.one_of(coord, st.just(-100.0))
    if draw(st.booleans()):
        axis = draw(st.integers(0, 1))
        seeds = [LineSeed(axis, draw(line)) for _ in configs]
    else:
        seeds = [SphereSeed(draw(st.one_of(dyadic, st.floats(0.0, 1.5 * SPAN))))
                 for _ in configs]
    if draw(st.booleans()):
        seeds = [seeds[0]] * len(configs)
    members = [component_exploration(model, RECT, seed, dilation) for seed in seeds]
    probes = []
    for cfg in configs:
        xs = [exact(rng.uniform(0.0, SPAN, (20, 2))), cfg.points]
        if cfg.size:
            idx = rng.integers(0, cfg.size, 6)
            planted = cfg.points[idx].copy()
            planted[np.arange(6), rng.integers(0, 2, 6)] += rng.choice(
                [-1.0, 1.0], 6) * (members[0].dilation + cfg.marks["radius"][idx])
            xs.append(planted)
        probes.append(np.vstack(xs))
    return members, configs, probes


def partition(labels):
    return labels[:, None] == labels


@settings(max_examples=400, deadline=None)
@given(blocks())
def test_contains_block_matches_one_configuration_at_a_time(case):
    members, configs, probes = case
    oracle = members[0]
    if all(m.seed == oracle.seed for m in members):
        got = oracle.contains_block(probes, configs)
    else:
        got = oracle.contains_block(probes, configs, members)
    assert len(got) == len(configs)
    for m, xs, cfg, hit in zip(members, probes, configs, got):
        assert hit.shape == (len(xs),) and hit.dtype == bool
        assert np.array_equal(hit, m.contains(xs, cfg))
        assert np.array_equal(hit, dense_contains(m, xs, cfg))

    world = BooleanWorld.block(configs, oracle.model, oracle.rect)
    tree = world.n * world.n > _DENSE_MAX
    reach = world.radii * (np.sqrt(2.0) if oracle.model.grain.kind == "box" else 1.0)
    big = tree and oracle.model.grain.law.bound is None and world.n > 1 and bool(
        np.any(reach > np.quantile(reach, 0.99)))
    event("tree path, big grains" if big else "tree path" if tree else "dense path")
    own = [BooleanWorld(cfg, oracle.model, oracle.rect) for cfg in configs]
    if len(configs) == 1:
        assert world.replica is None
        return
    bounds = np.searchsorted(world.replica, np.arange(len(configs) + 1))
    for b, w in enumerate(own):
        part = slice(bounds[b], bounds[b + 1])
        assert np.array_equal(world.points[part], w.points)
        assert np.array_equal(world.radii[part], w.radii)
        assert np.array_equal(partition(world.labels[part]), partition(w.labels))
    # no component holds grains of two configurations
    assert len(np.unique(world.labels)) == sum(len(np.unique(w.labels)) for w in own)


def dense_near(xs, centers, radii, thr):
    """Rows x of ``xs`` with |x - c| - r <= thr for some grain, every pair
    tested by ``np.linalg.norm``."""
    if len(xs) == 0 or len(radii) == 0:
        return np.zeros(len(xs), dtype=bool)
    d = np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2)
    return (d - radii[None, :] <= thr).any(axis=1)


@st.composite
def grain_index_cases(draw):
    """(xs, centers, radii, thr): up to 200 grains in a square of side 8 or
    1e4 with dyadic or arbitrary coordinates, and up to about 1,700 probes
    (grid or uniform) plus probes planted at exactly ``thr + r`` from a
    centre, on the edges of the sweep's x-strips, duplicated and far outside."""
    span = draw(st.sampled_from([8.0, 1e4]))
    corner = draw(st.sampled_from([0.0, -0.5 * span, 0.3 * span]))
    dyadic_coords = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def place(shape):
        pts = corner + rng.uniform(0.0, span, shape)
        return np.round(pts * 16.0) / 16.0 if dyadic_coords else pts

    # about half the cases have more pairs than the dense test takes
    sweep = draw(st.booleans())
    n = draw(st.integers(30, 200) if sweep else st.sampled_from([0, 1, 2, 12]))
    centers = place((n, 2))
    law = draw(st.sampled_from(["fixed", "uniform", "spread"]))
    if law == "fixed":
        radii = np.full(n, draw(st.sampled_from([0.0625, 0.25, 1.0, 1.25])))
    elif law == "uniform":
        radii = rng.uniform(0.25, 1.0, n)
        if dyadic_coords:
            radii = np.round(radii * 16.0) / 16.0
    else:  # r_max far above the typical radius
        radii = np.full(n, 0.0625)
        radii[: draw(st.integers(0, 2))] = draw(st.sampled_from([4.0, 16.0]))
    # arbitrary reaches thr + r, so that the sort key's rounding can cut a
    # window short of an exact hit at thr + r
    if dyadic_coords:
        thr = draw(st.sampled_from([0.0, 0.5, 1.0]))
    else:
        thr = rng.uniform(0.0, 2.0)

    m = 1600 if sweep else draw(st.sampled_from([0, 1, 40, 400]))
    if draw(st.booleans()):
        side = max(1, int(round(math.sqrt(m))))
        step = span / side
        g = corner + (np.arange(side) + 0.5) * step
        xs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        xs = place((m, 2))
    extra = []
    for i in rng.integers(0, n, draw(st.integers(0, 2 * n))) if n else []:
        x = centers[i].copy()
        sign = draw(st.sampled_from([-1.0, 1.0]))
        x[draw(st.integers(0, 1))] += sign * (thr + radii[i])
        extra.append(x)
    if len(xs) and draw(st.booleans()):
        extra.extend(xs[rng.integers(0, len(xs), 10)])  # duplicates
    if draw(st.booleans()):
        extra.extend([(corner - 10.0 * span, corner),
                      (corner + 3.0 * span, corner + 3.0 * span)])
    if extra:
        xs = np.vstack([xs, np.array(extra, dtype=float)])
    if len(xs) and n and draw(st.booleans()):
        # probes on and next to the x-strip edges: those of the sweep's
        # width and those of the bare reach thr + r_max
        reach = thr + radii.max()
        scale = np.abs(xs).max() + thr + radii.max()
        x0 = xs[:, 0].min()
        edges = []
        for width in (reach * (1.0 + 1e-9) + 8.0 * np.finfo(float).eps * scale, reach):
            for k in range(min(12, int(span / max(width, 1e-3)))):
                edge = x0 + k * width
                edges += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        ys = xs[rng.integers(0, len(xs), len(edges)), 1]
        xs = np.vstack([xs, np.column_stack([edges, ys])])
    return xs, centers, radii, thr


@settings(max_examples=300, deadline=None)
@given(grain_index_cases())
def test_grain_index_near_matches_dense_norm(case):
    xs, centers, radii, thr = case
    event("sweep" if len(xs) * len(radii) > _DENSE_MAX else "dense")
    got = _GrainIndex(centers, radii).near(xs, thr)
    assert got.shape == (len(xs),) and got.dtype == bool
    assert np.array_equal(got, dense_near(xs, centers, radii, thr))


def test_grain_index_near_on_a_wide_window():
    """A 1e4 window of unit-scale grains puts the sweep's sort keys near 1e8,
    where one rounding (about 1.5e-8) is far above a relative 1e-9 of the
    reach; probes planted at thr + r from every centre, along both axes,
    must still be found."""
    rng = np.random.default_rng(41)
    for thr in rng.uniform(0.0, 2.0, 12):
        centers = rng.uniform(0.0, 1e4, (200, 2))
        radii = np.full(200, 0.25)
        planted = []
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                x = centers.copy()
                x[:, axis] += sign * (thr + radii)
                planted.append(x)
        xs = np.vstack([rng.uniform(0.0, 1e4, (1600, 2)), *planted])
        got = _GrainIndex(centers, radii).near(xs, thr)
        assert np.array_equal(got, dense_near(xs, centers, radii, thr)), thr
