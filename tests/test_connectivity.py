"""Differential tests of the grain-graph connectivity, the k = 1 crossing
and the grain queries against dense references: every pair of balls
tested for overlap, every ball tested against the rect's faces, a point
or an l_inf box through its nearest point, and a plain breadth-first search
over the resulting matrix. The grain graph's two builds, the dense n x n test
and the candidate pairs of the integer cell table, are each checked
against the dense reference on both sides of the grain count that selects
between them; the cell table also on its own, on rects offset far from the
origin, on wide sparse rects and in block worlds. The seeded reach behind
``component_mask`` and ``connected`` is checked on the worlds of both
builds, including block worlds, worlds of no grain or one, and empty,
repeated and all-grain seed sets."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from poissonlab.percolation import (
    _DENSE_MAX,
    BooleanModel,
    BooleanWorld,
    FixedRadius,
    GrainSpec,
    ParetoRadius,
    UniformRadius,
    _gap,
    _reaches,
    crossing,
)
from poissonlab.process import BoxWindow, PointConfig
from poissonlab.stopping import LineSeed, SphereSeed

from grain_graph import csr_labels, grain_labels

SPAN = 8.0
RECT = BoxWindow((1.0, 1.0), (SPAN - 1.0, SPAN - 1.0))
coord = st.floats(0.0, SPAN, allow_nan=False)


def dense_adjacency(world):
    """Overlap of every grain pair, with the strict convention of the
    grain graph: balls meet when |d|^2 < (r_i + r_j)^2."""
    d = world.points[:, None, :] - world.points[None, :, :]
    rsum = world.radii[:, None] + world.radii[None, :]
    adj = np.einsum("ijk,ijk->ij", d, d) < rsum**2
    np.fill_diagonal(adj, False)
    return adj


def reference_depths(adj, sources):
    """Hop count from the nearest source grain, -1 where unreachable."""
    depth = np.full(len(adj), -1)
    frontier = sorted({int(g) for g in sources})
    for g in frontier:
        depth[g] = 0
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for g in frontier:
            for h in np.flatnonzero(adj[g]):
                if depth[h] < 0:
                    depth[h] = hops
                    nxt.append(int(h))
        frontier = nxt
    return depth


def reference_partition(adj):
    comp = np.full(len(adj), -1)
    for g in range(len(adj)):
        if comp[g] < 0:
            comp[reference_depths(adj, [g]) >= 0] = g
    return comp


@st.composite
def worlds(draw):
    law_kind = draw(st.sampled_from(["fixed", "uniform", "pareto"]))
    n = draw(st.integers(0, 40))
    points = np.array(
        draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=float
    ).reshape(n, 2)
    if law_kind == "fixed":
        law = FixedRadius(draw(st.floats(0.2, 1.5)))
        radii = np.full(n, law.r)
    else:
        lo = draw(st.floats(0.1, 1.0))
        hi = lo * draw(st.floats(1.0, 5.0))
        law = UniformRadius(lo, hi) if law_kind == "uniform" else ParetoRadius(lo, 3.5)
        radii = np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    model = BooleanModel(1.0, GrainSpec("ball", law), k=1)
    window = BoxWindow((0.0, 0.0), (SPAN, SPAN))
    world = BooleanWorld(PointConfig(window, points, {"radius": radii}), model, RECT)
    seed = draw(
        st.one_of(
            st.builds(LineSeed, st.integers(0, 1), coord),
            st.builds(SphereSeed, st.floats(0.0, 1.5 * SPAN)),
        )
    )
    return world, seed


def subset(draw, n):
    return np.array(
        draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else [], dtype=int
    )


def assert_reach_matches(world, adj, a, b):
    """``component_mask`` and ``connected`` against the plain breadth-first
    search on ``adj``, from the seed sets ``a``, ``b``, ``a`` twice over,
    every grain and none, towards ``b``, every grain and none."""
    every, none = np.arange(world.n), np.array([], dtype=int)
    for src in (a, b, np.concatenate([a, a]), every, none):
        reach = reference_depths(adj, src) >= 0
        mask = world.component_mask(src)
        assert mask.shape == (world.n,) and mask.dtype == bool
        assert np.array_equal(mask, reach)
        for dst in (b, every, none):
            assert world.connected(src, dst) == bool(reach[dst].any())


@settings(max_examples=300, deadline=None)
@given(worlds(), st.data())
def test_connectivity_matches_dense_references(case, data):
    world, seed = case
    adj = dense_adjacency(world)
    labels = grain_labels(world)
    assert labels.shape == (world.n,)
    comp = reference_partition(adj)
    assert np.array_equal(labels[:, None] == labels, comp[:, None] == comp)

    seeds = seed.touching(world)
    a = subset(data.draw, world.n)
    b = subset(data.draw, world.n)
    assert_reach_matches(world, adj, a, b)
    assert np.array_equal(
        world.component_mask(seeds), reference_depths(adj, seeds) >= 0
    )
    assert world.connected(a, b) == bool(np.intersect1d(comp[a], comp[b]).size)


@pytest.mark.parametrize("n", [0, 1])
def test_reach_on_worlds_of_no_grain_and_one(n):
    window = BoxWindow((0.0, 0.0), (SPAN, SPAN))
    points = np.full((n, 2), SPAN / 2.0)
    model = BooleanModel(1.0, GrainSpec("ball", FixedRadius(1.0)), k=1)
    world = BooleanWorld(PointConfig(window, points, {"radius": np.ones(n)}), model, RECT)
    assert world.n == n
    one = np.zeros(n, dtype=int)
    assert_reach_matches(world, dense_adjacency(world), one, one)
    assert world.component_mask(np.zeros(2 * n, dtype=int)).tolist() == [True] * n
    assert world.connected(one, one) == (n == 1)


def csr_entries(n, indices, indptr):
    """The n x n mask of a CSR matrix's entries, after checking that its
    index pointer is well formed and that no entry repeats."""
    assert indptr.shape == (n + 1,) and indptr[0] == 0
    assert indptr[-1] == len(indices) and np.all(np.diff(indptr) >= 0)
    assert np.all((indices >= 0) & (indices < n))
    mask = np.zeros((n, n), dtype=bool)
    mask[np.repeat(np.arange(n), np.diff(indptr)), indices] = True
    assert np.count_nonzero(mask) == len(indices)
    return mask


def same_partition(a, b):
    return np.array_equal(a[:, None] == a, b[:, None] == b)


# Radii are multiples of 5/32, so that a pair of equal radii r placed at
# (3, 4) * 2r / 5 is exactly tangent as well as one placed along an axis.
FIFTH = 5.0 / 32.0


@st.composite
def graph_worlds(draw):
    """Worlds of 0-140 background grains (so on both sides of the dense
    cap of 100) plus planted pairs: exactly tangent along an axis or on a
    3-4-5 diagonal, or moved one ulp closer or farther.  Pareto laws put a
    few large grains among the background, and may plant two grains larger
    than all others among at least 101 grains: on the tree path, both above
    the 0.99 radius quantile, so both are tested by dense rows."""
    law_kind = draw(st.sampled_from(["fixed", "uniform", "pareto"]))
    a = draw(st.integers(1, 6))
    b = a + draw(st.integers(0, 6))
    if law_kind == "fixed":
        law, b = FixedRadius(a * FIFTH), a
    elif law_kind == "uniform":
        law = UniformRadius(a * FIFTH, b * FIFTH)
    else:
        law = ParetoRadius(a * FIFTH, 2.5)
    # the big grains go on the tree path, among at least 101 grains
    plant_big = law_kind == "pareto" and draw(st.booleans())
    n = draw(st.integers(101 if plant_big else 0, 140))
    span = 16.0 * max(1.0, np.sqrt(n) / 4.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = [rng.uniform(0.0, span, (n, 2))]
    if law_kind == "fixed":
        radii = [np.full(n, law.r)]
    elif law_kind == "uniform":
        radii = [rng.uniform(law.lo, law.hi, n)]
    else:
        radii = [law.sample(rng, n)]
    cell = st.integers(0, int(16 * span)).map(lambda k: k / 16.0)
    for _ in range(draw(st.integers(0, 8))):
        c = np.array([draw(cell), draw(cell)])
        r_i = draw(st.integers(a, b)) * FIFTH
        sign = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
        if draw(st.booleans()):  # equal radii on the 3-4-5 diagonal
            r_j = r_i
            step = np.array([3.0, 4.0]) * (2.0 * r_i / 5.0)
        else:
            r_j = draw(st.integers(a, b)) * FIFTH
            step = np.array([r_i + r_j, 0.0])
            if draw(st.booleans()):
                step = step[::-1]
        other = c + sign * step
        toward = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        if toward:
            other = np.nextafter(other, other - toward * sign * np.inf)
        pts.append(np.array([c, other]))
        radii.append([r_i, r_j])
    if plant_big:
        # two big grains, larger than every other grain and overlapping each
        # other, and a small grain exactly tangent to the first along an
        # axis, or moved one ulp closer or farther
        m = int(np.ceil(np.concatenate([[b * FIFTH], *radii]).max() / FIFTH))
        r_1 = (m + draw(st.integers(1, 8))) * FIFTH
        r_2 = r_1 + draw(st.integers(1, 4)) * FIFTH
        r_s = draw(st.integers(a, b)) * FIFTH
        c = np.array([draw(cell), draw(cell)])
        axis = draw(st.integers(0, 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        big = c.copy()
        big[1 - axis] += sign * (r_1 + r_2) / 2.0
        small = c.copy()
        small[axis] += sign * (r_1 + r_s)
        toward = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        small[axis] = np.nextafter(small[axis], small[axis] - toward * sign * np.inf)
        pts.append(np.array([c, big, small]))
        radii.append([r_1, r_2, r_s])
    window = BoxWindow((0.0, 0.0), (span, span))
    config = PointConfig(window, np.concatenate(pts), {"radius": np.concatenate(radii)})
    return BooleanWorld(config, BooleanModel(1.0, GrainSpec("ball", law), k=1), window)


@settings(max_examples=200, deadline=None)
@given(graph_worlds())
def test_dense_and_tree_graphs_match_dense_reference(world):
    n, radii = world.n, world.radii
    if n * n <= _DENSE_MAX:
        event("dense")
    elif world.model.grain.max_radius is None and np.any(
        radii > np.quantile(radii, 0.99)
    ):
        event("tree, big grains")
    else:
        event("tree")
    adj = dense_adjacency(world)
    comp = reference_partition(adj)
    for indices, indptr in (world._dense_csr(), world._tree_csr()):
        assert np.array_equal(csr_entries(n, indices, indptr), adj)
        assert same_partition(csr_labels(n, indices, indptr), comp)
    assert np.array_equal(csr_entries(n, *world._graph()), adj)
    assert same_partition(grain_labels(world), comp)


@st.composite
def cell_table_worlds(draw):
    """Worlds for the cell table behind ``_tree_csr``: one configuration,
    or a block world of two to four.  The rect sits near the origin, is
    offset to 1e6, or spans 1e4 with a few dozen grains (where the table's
    size rule sets the cell side).  Ball grains with fixed, uniform or
    Pareto radii, drawn around r_hi, the largest radius of a bounded law.  Each configuration holds random grains, chains planted from the
    rect's lower side along an axis, whose links are r_i + r_j or one ulp
    either side, and pairs of grains of radius r_hi exactly 2*r_hi apart
    along an axis, or one ulp either side, whose first grain lies within a
    few ulps of an edge of the grid of side 2*r_hi anchored one cell below
    the rect: near the origin, rounding moves about one such overlapping
    pair in fifty two cells apart on a grid without the table's margin.  A
    block's configurations may share their chains and pairs: coincident
    grains of different configurations, which only the configuration key
    keeps apart.  Pareto worlds may add two grains above every other, on
    the dense rows."""
    law_kind = draw(st.sampled_from(["fixed", "uniform", "pareto"]))
    r_hi = draw(st.floats(0.2, 1.5))
    if law_kind == "fixed":
        law = FixedRadius(r_hi)
    elif law_kind == "uniform":
        law = UniformRadius(r_hi / 3.0, r_hi)
    else:
        law = ParetoRadius(r_hi / 3.0, 2.5)
    place = draw(st.sampled_from(["origin", "offset", "wide"]))
    if place == "wide":
        lo = np.array([draw(st.floats(-5e3, 5e3)), draw(st.floats(-5e3, 5e3))])
        extent = np.array([1e4, 1e4])
    else:
        corner = draw(st.floats(-3.0, 3.0)) + (1e6 if place == "offset" else 0.0)
        lo = np.array([corner, corner + draw(st.floats(0.0, 1.0))])
        extent = np.array([draw(st.floats(4.0, 12.0)), draw(st.floats(4.0, 12.0))])
    rect = BoxWindow(tuple(lo), tuple(lo + extent))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def radius(size):
        if law_kind == "fixed":
            return np.full(size, r_hi)
        if law_kind == "uniform":
            return rng.uniform(law.lo, law.hi, size)
        return np.minimum(law.sample(rng, size), r_hi)

    def chains():
        pts, radii = [], []
        for _ in range(draw(st.integers(0, 4))):
            axis = draw(st.integers(0, 1))
            c = np.array([0.0, 0.0])
            c[axis] = lo[axis] - draw(st.sampled_from([0.0, r_hi]))
            c[1 - axis] = lo[1 - axis] + rng.uniform(0.0, extent[1 - axis])
            r = r_hi if draw(st.booleans()) else radius(1)[0]
            for _ in range(min(40, int(extent[axis] / (2.0 * r_hi)) + 2)):
                pts.append(c.copy())
                radii.append(r)
                r_next = r_hi if rng.random() < 0.7 else radius(1)[0]
                step = r + r_next
                c[axis] += np.nextafter(step, step + rng.integers(-1, 2))
                r = r_next
        return pts, radii

    def edge_pairs():
        pts = []
        for _ in range(draw(st.integers(0, 12))):
            axis = rng.integers(0, 2)
            k = rng.integers(1, int(extent[axis] / (2.0 * r_hi)) + 2)
            edge = lo[axis] - 2.0 * r_hi + k * (2.0 * r_hi)
            c = lo + rng.uniform(0.0, 1.0, 2) * extent
            c[axis] = edge + rng.integers(-4, 5) * np.spacing(edge)
            other = c.copy()
            step = 2.0 * r_hi
            other[axis] += np.nextafter(step, step + rng.integers(-1, 2))
            pts += [c, other]
        return pts, [r_hi] * len(pts)

    def planted():
        a, b = chains(), edge_pairs()
        return a[0] + b[0], a[1] + b[1]

    shared = planted()
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 60))
        pts = [lo - r_hi + rng.uniform(0.0, 1.0, (n, 2)) * (extent + 2.0 * r_hi)]
        radii = [radius(n)]
        own = shared if draw(st.booleans()) else planted()
        if own[0]:
            pts.append(np.array(own[0]))
            radii.append(own[1])
        if law_kind == "pareto" and draw(st.booleans()):
            # two grains above every other, one on a planted chain grain
            anchor = pts[-1][rng.integers(0, len(pts[-1]))] if len(pts[-1]) else lo
            pts.append(np.array([anchor, lo + rng.uniform(0.0, 1.0, 2) * extent]))
            radii.append([3.0 * r_hi, 4.0 * r_hi])
        blocks.append(PointConfig(rect.pad(4.0 * r_hi), np.concatenate(pts),
                                  {"radius": np.concatenate(radii)}))
    model = BooleanModel(1.0, GrainSpec("ball", law), k=1)
    return BooleanWorld.block(blocks, model, rect)


@settings(max_examples=300, deadline=None)
@given(cell_table_worlds(), st.data())
def test_cell_table_graph_matches_dense_reference(world, data):
    """``_tree_csr`` on any number of grains (the dense path's cap does not
    apply here) against the dense reference restricted to pairs of one
    configuration; and the seeded reach on the graph the world uses, which
    is ``_tree_csr``'s above the dense path's cap."""
    n, radii = world.n, world.radii
    if world.replica is not None:
        event("block world")
    if n > 1 and world.model.grain.max_radius is None and np.any(
        radii > np.quantile(radii, 0.99)
    ):
        event("big grains")
    event("reach on the tree path" if n * n > _DENSE_MAX else "reach on the dense path")
    adj = dense_adjacency(world)
    if world.replica is not None:
        adj &= world.replica[:, None] == world.replica
    indices, indptr = world._tree_csr()
    assert np.array_equal(csr_entries(n, indices, indptr), adj)
    assert_reach_matches(world, adj, subset(data.draw, n), subset(data.draw, n))


def test_cell_table_keeps_pairs_on_cell_edges():
    """Thousands of ball pairs exactly 2*r apart along an axis, or one ulp
    either side, the first within a few ulps of an edge of the grid of side
    2*r anchored one cell below the rect, for rects near the origin and
    offset to 1e6: ``_tree_csr`` keeps exactly the overlapping ones."""
    rng = np.random.default_rng(19)
    for r in rng.uniform(0.2, 1.5, 12):
        for corner in (0.0, 1.0, -3.3, 1e6):
            lo, extent = np.array([corner, corner]), np.array([9.0, 7.0])
            rect = BoxWindow(tuple(lo), tuple(lo + extent))
            axis = rng.integers(0, 2, 300)
            k = rng.integers(1, 6, 300)
            edge = lo[axis] - 2.0 * r + k * (2.0 * r)
            first = lo + rng.uniform(0.0, 1.0, (300, 2)) * extent
            first[np.arange(300), axis] = edge + rng.integers(-4, 5, 300) * np.spacing(edge)
            second = first.copy()
            step = np.nextafter(2.0 * r, 2.0 * r + rng.integers(-1, 2, 300))
            second[np.arange(300), axis] += step
            points = np.concatenate([first, second])
            model = BooleanModel(1.0, GrainSpec("ball", FixedRadius(r)), k=1)
            config = PointConfig(rect.pad(r), points, {"radius": np.full(600, r)})
            world = BooleanWorld(config, model, rect)
            indices, indptr = world._tree_csr()
            assert np.array_equal(csr_entries(world.n, indices, indptr),
                                  dense_adjacency(world)), (r, corner)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_cell_table_matches_dense_reference_in_any_dimension(dim, seed):
    """The cell table's stencil on lines and in space, where its
    lexicographically positive neighbour lines are none and four."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.2, 1.0)
    lo = rng.uniform(-3.0, 3.0, dim)
    rect = BoxWindow(tuple(lo), tuple(lo + rng.uniform(2.0, 6.0, dim)))
    n = rng.integers(0, 150)
    points = rect.pad(r).sample_uniform(rng, n)
    model = BooleanModel(1.0, GrainSpec("ball", FixedRadius(r)), k=1)
    world = BooleanWorld(PointConfig(rect.pad(r), points, {"radius": np.full(n, r)}),
                         model, rect)
    indices, indptr = world._tree_csr()
    assert np.array_equal(csr_entries(world.n, indices, indptr), dense_adjacency(world))


def dense_face(world, axis, coord):
    """Grains whose closed grain meets the face {x_axis = coord} of the
    rect: the face point nearest to each centre, found by clipping."""
    near = np.clip(world.points, world.rect.lo, world.rect.hi)
    near[:, axis] = coord
    d = world.points - near
    return np.flatnonzero((d**2).sum(axis=1) <= world.radii**2)


@st.composite
def crossing_worlds(draw):
    """Random grains plus chains that start exactly tangent to a face of
    RECT (gap to the face equal to the radius) and run across it with each
    centre step at r_i + r_j or one ulp either side."""
    law_kind = draw(st.sampled_from(["fixed", "uniform", "pareto"]))
    if law_kind == "fixed":
        law = FixedRadius(draw(st.floats(0.2, 1.5)))
        radius = st.just(law.r)
    else:
        lo = draw(st.floats(0.1, 1.0))
        hi = lo * draw(st.floats(1.0, 5.0))
        law = UniformRadius(lo, hi) if law_kind == "uniform" else ParetoRadius(lo, 3.5)
        radius = st.floats(lo, hi)
    pts, radii = [], []
    for _ in range(draw(st.integers(0, 20))):
        pts.append((draw(coord), draw(coord)))
        radii.append(draw(radius))
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.integers(0, 1))
        start, heading = draw(st.sampled_from(
            [(RECT.lo[axis], 1.0), (RECT.hi[axis], -1.0)]))
        r = draw(radius)
        c = start + draw(st.sampled_from([-1.0, 1.0])) * r
        if law_kind != "fixed":
            r = abs(c - start)
        if abs(c - start) != r:
            continue
        other = draw(st.floats(RECT.lo[1 - axis] - 0.5, RECT.hi[1 - axis] + 0.5))
        while True:
            pts.append((c, other) if axis == 0 else (other, c))
            radii.append(r)
            if heading * (c - start) > RECT.hi[axis] - RECT.lo[axis] + r:
                break
            r_next = draw(radius)
            step = r + r_next  # moved one ulp down, kept, or moved one ulp up
            step = np.nextafter(step, step + draw(st.sampled_from([-1.0, 0.0, 1.0])))
            c += heading * float(step)
            r = r_next
    points = np.array(pts, dtype=float).reshape(len(pts), 2)
    model = BooleanModel(1.0, GrainSpec("ball", law), k=1)
    window = BoxWindow((-SPAN, -SPAN), (2 * SPAN, 2 * SPAN))
    return BooleanWorld(PointConfig(window, points, {"radius": np.array(radii)}), model, RECT)


@settings(max_examples=300, deadline=None)
@given(crossing_worlds())
def test_crossing_matches_dense_reference(world):
    adj = dense_adjacency(world)
    for axis in (0, 1):
        faces = [dense_face(world, axis, c) for c in (RECT.lo[axis], RECT.hi[axis])]
        got = world.grains_meeting_faces(axis, (RECT.lo[axis], RECT.hi[axis]))
        for g, want, c in zip(got, faces, (RECT.lo[axis], RECT.hi[axis])):
            assert np.array_equal(g, want)
            assert np.array_equal(world.grains_meeting_faces(axis, (c,))[0], want)
        reached = reference_depths(adj, faces[0]) >= 0
        assert crossing(world, axis) == bool(reached[faces[1]].any())


def dense_meets(points, radii, lo, hi):
    """Grains whose closed ball meets the closed box [lo, hi] (a point when
    lo = hi): the box point nearest to each centre, found by clipping."""
    d = points - np.clip(points, lo, hi)
    return np.flatnonzero((d**2).sum(axis=1) <= radii**2)


dyadic = st.integers(0, 8 * 16).map(lambda i: i / 16.0)


@st.composite
def tangent_worlds(draw):
    """A world of ``worlds()`` plus grains planted against a point x, the
    box [-half, half]^2 and RECT: per axis the centre lies a radius beyond
    the lower or upper side (exactly tangent: all values are multiples of
    1/16, so |gap| == r without rounding) or on a side, then possibly moves
    one ulp either way."""
    world, _ = draw(worlds())
    x = np.array([draw(dyadic), draw(dyadic)])
    half = draw(dyadic)
    pts = [world.config.points.reshape(-1, 2)]
    radii = [world.config.marks["radius"]]
    for lo, hi in ((x, x), ((-half, -half), (half, half)), (RECT.lo, RECT.hi)):
        for _ in range(draw(st.integers(0, 6))):
            r = draw(st.integers(1, 24)) / 16.0
            c = np.array([
                draw(st.sampled_from([lo[k] - r, hi[k] + r, lo[k], hi[k]]))
                for k in (0, 1)
            ])
            c = np.nextafter(c, c + draw(st.sampled_from([-1.0, 0.0, 1.0])))
            pts.append(c[None, :])
            radii.append([r])
    config = PointConfig(world.config.window, np.concatenate(pts),
                         {"radius": np.concatenate(radii)})
    return config, world.model, x, half


@settings(max_examples=300, deadline=None)
@given(tangent_worlds())
def test_grain_queries_match_dense_references(case):
    config, model, x, half = case
    world = BooleanWorld(config, model, RECT)
    kept = dense_meets(config.points, config.marks["radius"], RECT.lo, RECT.hi)
    assert np.array_equal(world.points, config.points[kept])
    assert np.array_equal(world.radii, config.marks["radius"][kept])
    covering = dense_meets(world.points, world.radii, x, x)
    assert np.array_equal(world.grains_covering(x), covering)
    assert np.array_equal(
        world.grains_meeting_linf_box(half),
        dense_meets(world.points, world.radii, -half, half),
    )


@settings(max_examples=300, deadline=None)
@given(tangent_worlds())
def test_face_tests_match_two_column_gap_formula(case):
    """``grains_meeting_faces`` against the clipped two-column gap with the
    face's own axis put in, tested by ``_reaches``: the same grains, with
    grains at a gap of exactly r (planted tangent to RECT) counted."""
    config, model, _, _ = case
    world = BooleanWorld(config, model, RECT)
    for axis in (0, 1):
        coords = (RECT.lo[axis], RECT.hi[axis])
        for c, got in zip(coords, world.grains_meeting_faces(axis, coords)):
            gap = _gap(world.points, RECT.lo, RECT.hi)
            gap[:, axis] = np.abs(world.points[:, axis] - c)
            want = _reaches(gap, world.radii)
            assert np.array_equal(got, np.flatnonzero(want))
            touching = np.einsum("ij,ij->i", gap, gap) == world.radii**2
            assert set(np.flatnonzero(touching)) <= set(got)
