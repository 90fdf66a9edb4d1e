"""Differential tests of the grain-graph connectivity, the k = 1 crossing
and the grain queries against dense references: every pair of grains
tested for overlap, every grain tested against the rect's faces, a point
or a box through its nearest point, and a plain breadth-first search over
the resulting matrix. The grain graph's two builds, the dense n x n test
and the kd-tree candidates, are each checked against the dense reference
on both sides of the grain count that selects between them."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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

SPAN = 8.0
RECT = BoxWindow((1.0, 1.0), (SPAN - 1.0, SPAN - 1.0))
coord = st.floats(0.0, SPAN, allow_nan=False)


def dense_adjacency(world):
    """Overlap of every grain pair, with the strict conventions of the
    grain graph: balls meet when |d|^2 < (r_i + r_j)^2, boxes when every
    axis gap is below r_i + r_j."""
    d = world.points[:, None, :] - world.points[None, :, :]
    rsum = world.radii[:, None] + world.radii[None, :]
    if world.model.grain.kind == "ball":
        adj = np.einsum("ijk,ijk->ij", d, d) < rsum**2
    else:
        adj = np.all(np.abs(d) < rsum[:, :, None], axis=2)
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
    kind = draw(st.sampled_from(["ball", "box"]))
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
    model = BooleanModel(1.0, GrainSpec(kind, law), k=1)
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


@settings(max_examples=300, deadline=None)
@given(worlds(), st.data())
def test_connectivity_matches_dense_references(case, data):
    world, seed = case
    adj = dense_adjacency(world)
    labels = world.labels
    assert labels.shape == (world.n,)
    comp = reference_partition(adj)
    assert np.array_equal(labels[:, None] == labels, comp[:, None] == comp)

    seeds = seed.touching(world)
    a = subset(data.draw, world.n)
    b = subset(data.draw, world.n)
    reach = reference_depths(adj, a) >= 0
    assert np.array_equal(world.component_mask(a), reach)
    assert np.array_equal(
        world.component_mask(seeds), reference_depths(adj, seeds) >= 0
    )
    assert world.connected(a, b) == bool(reach[b].any())
    assert world.connected(a, b) == bool(np.intersect1d(comp[a], comp[b]).size)


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
    the 0.99 reach quantile, so both are tested by dense rows."""
    kind = draw(st.sampled_from(["ball", "box"]))
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
    return BooleanWorld(config, BooleanModel(1.0, GrainSpec(kind, law), k=1), window)


@settings(max_examples=200, deadline=None)
@given(graph_worlds())
def test_dense_and_tree_graphs_match_dense_reference(world):
    n = world.n
    reach = world.radii * (np.sqrt(2.0) if world.model.grain.kind == "box" else 1.0)
    if n * n <= _DENSE_MAX:
        event("dense")
    elif world.model.grain.max_radius is None and np.any(
        reach > np.quantile(reach, 0.99)
    ):
        event("tree, big grains")
    else:
        event("tree")
    adj = dense_adjacency(world)
    comp = reference_partition(adj)
    for indices, indptr in (world._dense_csr(), world._tree_csr()):
        assert np.array_equal(csr_entries(n, indices, indptr), adj)
        graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
        _, labels = connected_components(graph, directed=True, connection="strong")
        assert same_partition(labels, comp)
    used = world.adjacency
    assert np.array_equal(csr_entries(n, used.indices, used.indptr), adj)
    assert same_partition(world.labels, comp)


def dense_face(world, axis, coord):
    """Grains whose closed grain meets the face {x_axis = coord} of the
    rect: the face point nearest to each centre, found by clipping."""
    near = np.clip(world.points, world.rect.lo, world.rect.hi)
    near[:, axis] = coord
    d = world.points - near
    if world.model.grain.kind == "ball":
        return np.flatnonzero((d**2).sum(axis=1) <= world.radii**2)
    return np.flatnonzero(np.all(np.abs(d) <= world.radii[:, None], axis=1))


@st.composite
def crossing_worlds(draw):
    """Random grains plus chains that start exactly tangent to a face of
    RECT (gap to the face equal to the radius) and run across it with each
    centre step at r_i + r_j or one ulp either side."""
    kind = draw(st.sampled_from(["ball", "box"]))
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
    model = BooleanModel(1.0, GrainSpec(kind, law), k=1)
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
            assert np.array_equal(world.grains_meeting_face(axis, c), want)
        reached = reference_depths(adj, faces[0]) >= 0
        assert crossing(world, axis) == bool(reached[faces[1]].any())


def dense_meets(points, radii, lo, hi, kind):
    """Grains whose closed grain meets the closed box [lo, hi] (a point when
    lo = hi): the box point nearest to each centre, found by clipping."""
    d = points - np.clip(points, lo, hi)
    if kind == "ball":
        return np.flatnonzero((d**2).sum(axis=1) <= radii**2)
    return np.flatnonzero(np.all(np.abs(d) <= radii[:, None], axis=1))


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
    kind = model.grain.kind
    world = BooleanWorld(config, model, RECT)
    kept = dense_meets(config.points, config.marks["radius"], RECT.lo, RECT.hi, kind)
    assert np.array_equal(world.points, config.points[kept])
    assert np.array_equal(world.radii, config.marks["radius"][kept])
    covering = dense_meets(world.points, world.radii, x, x, kind)
    assert np.array_equal(world.grains_covering(x), covering)
    assert world.cover_count(x) == len(covering)
    assert np.array_equal(
        world.grains_meeting_linf_box(half),
        dense_meets(world.points, world.radii, -half, half, kind),
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
            want = _reaches(gap, world.radii, model.grain.kind)
            assert np.array_equal(got, np.flatnonzero(want))
            if model.grain.kind == "ball":
                touching = np.einsum("ij,ij->i", gap, gap) == world.radii**2
            else:
                touching = np.any(gap == world.radii[:, None], axis=1) & want
            assert set(np.flatnonzero(touching)) <= set(got)
