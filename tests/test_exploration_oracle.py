"""Differential tests of the exploration oracle, and of the grain index
behind it, against the dense probes x grains distance formulas they
replace.

The library answers membership through ``stopping._near``: one broadcast
test of every pair for small probe sets, and a sweep over probes sorted by
(x-strip, y) for large ones. The references here rebuild the world on every
call and test the full probes x grains matrix, as the oracle once did: the
distance to a ball (Boolean grains are balls). Agreement must be exact,
including on probes planted at exactly ``dilation + r`` from a centre, along
an axis or along both, and on the edge of the seed band. The oracle cases
use 8 x 8 windows and so reach only the dense test; the grain-index case
below also covers the sweep, on strip edges, on windows of span 1e4 and
with a wide spread of radii.

What the references encode is checked by what the set must mean: a ball
of radius ``dilation`` dropped at a probe outside the set joins no revealed
component.

The block evaluation, one block world for many configurations, is checked
against the oracle asked one configuration at a time, and the block
world's components against each configuration's own world, also when the
block repeats a configuration, so that coincident grains of different
configurations meet in one grain-graph cell table.
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
    _near,
    component_exploration,
)

from grain_graph import grain_labels

SPAN = 8.0
RECT = BoxWindow((1.0, 1.0), (SPAN - 1.0, SPAN - 1.0))
WINDOW = BoxWindow((0.0, 0.0), (SPAN, SPAN))
# Multiples of 1/16 keep planted distances exact, so ties reach the test.
dyadic = st.integers(0, int(16 * SPAN)).map(lambda k: k / 16.0)
coord = st.one_of(dyadic, st.floats(0.0, SPAN, allow_nan=False))


def dense_within(xs, centers, radii, thr):
    """Whether a ball of radius ``thr`` at each probe (row) can meet each
    grain (column): |x - c| - r <= thr by ``np.linalg.norm``."""
    d = xs[:, None, :] - centers[None, :, :]
    return np.linalg.norm(d, axis=2) - radii[None, :] <= thr


def seed_band(seed, xs, thr):
    """Whether a ball of radius ``thr`` at each probe can meet the seed: a
    line within thr along its axis, a sphere within thr of its radius."""
    if isinstance(seed, LineSeed):
        return np.abs(xs[:, seed.axis] - seed.coord) <= thr
    return np.abs(np.linalg.norm(xs, axis=1) - seed.s) <= thr


def dense_contains(oracle, xs, config):
    """Membership by the dense formulas: seed band, or within ``dilation`` of
    a grain of the components meeting the seed."""
    xs = np.atleast_2d(xs)
    world = BooleanWorld(config, oracle.model, oracle.rect)
    out = seed_band(oracle.seed, xs, oracle.dilation)
    comp = np.flatnonzero(world.component_mask(oracle.seed.touching(world)))
    if len(comp):
        out |= dense_within(xs, world.points[comp], world.radii[comp],
                            oracle.dilation).any(axis=1)
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
    """Random probes plus probes at exactly ``dilation + r`` from a centre,
    or 7/8 of that (offset along one axis, or along both), and exactly on
    the edge of the seed band."""
    k = draw(st.integers(0, 30))
    xs = [draw(st.tuples(coord, coord)) for _ in range(k)]
    planted = st.lists(st.integers(0, config.size - 1), max_size=8)
    for i in draw(planted) if config.size else []:
        c = config.points[i]
        reach = dilation + config.marks["radius"][i]
        axes = draw(st.sampled_from([[0], [1], [0, 1]]))
        depth = draw(st.sampled_from([1.0, 0.875]))
        x = c.copy()
        for axis in axes:
            x[axis] += draw(st.sampled_from([-1.0, 1.0])) * reach * depth
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_grain_dropped_outside_joins_no_revealed_component(data):
    """The stopping-set property behind the formulas: a grain of the
    largest size (the default dilation) centred at a probe outside the set
    meets neither the seed nor a revealed grain, so it is not revealed."""
    model = data.draw(models())
    seed = data.draw(seeds)
    oracle = component_exploration(model, RECT, seed)
    a = data.draw(configs(model))
    xs = planted_probes(data.draw, a, seed, oracle.dilation)
    world = BooleanWorld(a, model, RECT)
    revealed = np.count_nonzero(world.component_mask(seed.touching(world)))
    for x in xs[~oracle.contains(xs, a)]:
        one = PointConfig(WINDOW, x[None], {"radius": np.array([oracle.dilation])})
        joined = BooleanWorld(PointConfig.join([a, one]), model, RECT)
        assert np.count_nonzero(joined.component_mask(seed.touching(joined))) == revealed, x


@st.composite
def blocks(draw):
    """(members, configs, probes): 1 to ``_BLOCK + 1`` configurations of
    one model on the 8 x 8 window, with ball grains and fixed, uniform or
    Pareto radii (those with an explicit dilation), of 0 to 30
    grains each, so that about half the blocks take the tree path and
    Pareto blocks there have grains above the reference reach; one
    exploration per configuration, with its own line (possibly one that
    meets no grain, at -100) or sphere seed, or one seed for all; and per
    configuration random probes, its grain centres and probes at exactly
    dilation + r from a centre."""
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
    model = BooleanModel(1.0, GrainSpec("ball", law), k=1)
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
    radii = world.radii
    big = tree and oracle.model.grain.law.bound is None and world.n > 1 and bool(
        np.any(radii > np.quantile(radii, 0.99)))
    event("tree path, big grains" if big else "tree path" if tree else "dense path")
    own = [BooleanWorld(cfg, oracle.model, oracle.rect) for cfg in configs]
    if len(configs) == 1:
        assert world.replica is None
        return
    bounds = np.searchsorted(world.replica, np.arange(len(configs) + 1))
    labels, own_labels = grain_labels(world), [grain_labels(w) for w in own]
    for b, w in enumerate(own):
        part = slice(bounds[b], bounds[b + 1])
        assert np.array_equal(world.points[part], w.points)
        assert np.array_equal(world.radii[part], w.radii)
        assert np.array_equal(partition(labels[part]), partition(own_labels[b]))
    # no component holds grains of two configurations
    assert len(np.unique(labels)) == sum(len(np.unique(lab)) for lab in own_labels)


@st.composite
def coincident_blocks(draw):
    """(oracle, configs, probes): 2 to ``_BLOCK`` configurations that repeat
    one to three base configurations, so that their block world holds
    coincident grains of different configurations, which only the
    configuration key of the grain graph's cell table keeps apart.  Each
    base holds 6 to 30 random ball grains (fixed or uniform radii up
    to r_hi) and a chain from RECT's lower side along axis 0 whose links
    are 2*r_hi or one ulp either side; most blocks take the tree path.  One
    line seed for all; per configuration random probes and its grain
    centres."""
    r_hi = draw(st.floats(0.25, 1.0))
    law = FixedRadius(r_hi) if draw(st.booleans()) else UniformRadius(r_hi / 2.0, r_hi)
    model = BooleanModel(1.0, GrainSpec("ball", law), k=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(6, 30))
        points = [rng.uniform(0.0, SPAN, (n, 2))]
        radii = [np.full(n, r_hi) if isinstance(law, FixedRadius)
                 else rng.uniform(law.lo, law.hi, n)]
        x, y = RECT.lo[0], rng.uniform(RECT.lo[1], RECT.hi[1])
        for _ in range(int((RECT.hi[0] - RECT.lo[0]) / (2.0 * r_hi)) + 2):
            points.append([[x, y]])
            radii.append([r_hi])
            x += np.nextafter(2.0 * r_hi, 2.0 * r_hi + rng.integers(-1, 2))
        bases.append(PointConfig(WINDOW, np.concatenate(points),
                                 {"radius": np.concatenate(radii)}))
    configs = [bases[i] for i in rng.integers(0, len(bases), draw(st.integers(2, _BLOCK)))]
    oracle = component_exploration(model, RECT, LineSeed(draw(st.integers(0, 1)),
                                                         draw(coord)),
                                   draw(st.sampled_from([None, 0.0, 0.5])))
    probes = [np.vstack([rng.uniform(0.0, SPAN, (20, 2)), cfg.points]) for cfg in configs]
    return oracle, configs, probes


@settings(max_examples=200, deadline=None)
@given(coincident_blocks())
def test_block_world_keeps_coincident_configurations_apart(case):
    oracle, configs, probes = case
    got = oracle.contains_block(probes, configs)
    for xs, cfg, hit in zip(probes, configs, got):
        assert np.array_equal(hit, dense_contains(oracle, xs, cfg))
    world = BooleanWorld.block(configs, oracle.model, oracle.rect)
    event("tree path" if world.n * world.n > _DENSE_MAX else "dense path")
    bounds = np.searchsorted(world.replica, np.arange(len(configs) + 1))
    own = [grain_labels(BooleanWorld(cfg, oracle.model, oracle.rect)) for cfg in configs]
    labels = grain_labels(world)
    for b, lab in enumerate(own):
        assert np.array_equal(partition(labels[bounds[b]:bounds[b + 1]]), partition(lab))
    assert len(np.unique(labels)) == sum(len(np.unique(lab)) for lab in own)


def dense_near(xs, centers, radii, thr):
    """Rows x of ``xs`` within ``thr`` of some grain, every pair tested by
    ``dense_within``."""
    if len(xs) == 0 or len(radii) == 0:
        return np.zeros(len(xs), dtype=bool)
    return dense_within(xs, centers, radii, thr).any(axis=1)


@st.composite
def grain_index_cases(draw):
    """(xs, centers, radii, thr): up to 200 ball grains in a square of side 8
    or 1e4 with dyadic or arbitrary coordinates, and up to about 1,700 probes
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
    got = _near(xs, centers, radii, thr)
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
        got = _near(xs, centers, radii, thr)
        assert np.array_equal(got, dense_near(xs, centers, radii, thr)), thr
