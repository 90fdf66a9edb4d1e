"""Differential tests of the confetti first-arrival painter against the dense
grains x stencil formula it replaced.

The library classifies stencil offsets per batch (pruned, surely covered, or
on the boundary ring) and runs the exact coverage test on the ring only; it
keeps the first arrival per cell by birth-time rank on a padded raster. When
fewer cells can still change than the stencil has offsets (a sampled world's
later chunks), it tests every grain against those cells instead; the
later-chunk tests paint onto a table with only a few open cells to reach
that path. The reference below tests every grain against every offset of its
stencil and masks cells outside the window. Agreement must be exact, including on
centres and radii that are multiples of 1/16 (so ``dx*dx + dy*dy == r*r``
and ``|dx| == r`` ties reach the test), on grains sitting on cell edges of a
window whose corner is not dyadic (so rounding moves a centre's offset past
half a cell), on grains more than one reach outside the window and on
planted equal birth times, where the lower index wins.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab.percolation import (
    ConfettiModel,
    FixedRadius,
    GrainSpec,
    UniformRadius,
    _cell_centers,
    _confetti_paint,
    confetti_world_from_config,
    sample_confetti_world,
)
from poissonlab.process import BoxWindow
from poissonlab.rng import stream

KINDS = [("ball", "ball"), ("ball", "box"), ("box", "box")]
WINDOWS = [
    BoxWindow((0.0, 0.0), (2.0, 1.5)),
    BoxWindow((0.1, -0.3), (1.6, 1.2)),
    BoxWindow((-1.25, 0.5), (0.75, 1.5)),
]
FAR = 2.5  # grains reach at most 1.5 * sqrt(2) < FAR beyond their centre


def dense_paint(best_time, best_black, pts, times, colors, radii, rect, h, kinds):
    """Every grain against all (2k+1)^2 stencil offsets, then a bounds mask;
    ties in birth time go to the lower grain index, and a cell takes the
    batch's first arrival only if it is earlier than the table's time."""
    if len(pts) == 0:
        return
    xs, ys = _cell_centers(rect, h)
    nx, ny = len(xs), len(ys)
    lo = np.asarray(rect.lo)
    reach = radii * (1.0 if kinds == ("ball", "ball") else math.sqrt(2.0))
    k_max = int(np.ceil(reach.max() / h)) + 1
    ix = np.floor((pts[:, 0] - lo[0]) / h).astype(np.int32)
    iy = np.floor((pts[:, 1] - lo[1]) / h).astype(np.int32)
    offs = np.arange(-k_max, k_max + 1, dtype=np.int32)
    oi, oj = np.meshgrid(offs, offs, indexing="ij")
    oi = oi.ravel()
    oj = oj.ravel()
    sub_x = lo[0] + (ix + 0.5) * h - pts[:, 0]
    sub_y = lo[1] + (iy + 0.5) * h - pts[:, 1]
    dx = sub_x[:, None] + (oi * h)[None, :]
    dy = sub_y[:, None] + (oj * h)[None, :]
    if kinds[0] == "ball" and kinds[1] == "ball":
        covered = dx * dx + dy * dy <= (radii**2)[:, None]
    else:
        half = radii[:, None]
        ball_like = np.array([kinds[0] == "ball", kinds[1] == "ball"])
        is_ball = ball_like[colors][:, None]
        covered = np.where(
            is_ball,
            dx * dx + dy * dy <= (radii**2)[:, None],
            (np.abs(dx) <= half) & (np.abs(dy) <= half),
        )
    ci = ix[:, None] + oi[None, :]
    cj = iy[:, None] + oj[None, :]
    covered &= (ci >= 0) & (ci < nx) & (cj >= 0) & (cj < ny)
    g_idx, o_idx = np.nonzero(covered)
    flat = ci[g_idx, o_idx].astype(np.int64) * ny + cj[g_idx, o_idx]
    t = times[g_idx]
    batch_time = np.full(len(best_time), np.inf)
    np.minimum.at(batch_time, flat, t)
    win = np.flatnonzero(t == batch_time[flat])
    order = np.lexsort((g_idx[win], flat[win]))  # by cell, then grain index
    cell, grain = flat[win][order], g_idx[win][order]
    first = np.ones(len(cell), dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    cell, grain = cell[first], grain[first]
    earlier = times[grain] < best_time[cell]
    cell, grain = cell[earlier], grain[earlier]
    best_time[cell] = times[grain]
    best_black[cell] = colors[grain] == 0


@st.composite
def batches(draw):
    kinds = draw(st.sampled_from(KINDS))
    h = draw(st.sampled_from([1 / 8, 1 / 16]))
    rect = draw(st.sampled_from(WINDOWS))
    return (kinds, h, rect, *draw(grains(rect, h)))


@st.composite
def grains(draw, rect, h, min_size=0):
    """(pts, times, colors, radii) of up to 60 grains around ``rect``."""
    lo, hi = np.asarray(rect.lo), np.asarray(rect.hi)
    n = draw(st.integers(min_size, 60))
    # lattice radii, and box half-sides that end exactly on a cell edge
    radius = st.one_of(
        st.integers(2, 24).map(lambda j: j / 16),
        st.integers(0, 10).map(lambda j: (j + 0.5) * h),
    )
    if draw(st.booleans()):
        radii = np.full(n, draw(radius))
    else:
        radii = np.array(draw(st.lists(radius, min_size=n, max_size=n)), dtype=float)

    def coord(ax):
        lattice = st.integers(
            math.floor(16 * (lo[ax] - FAR)), math.ceil(16 * (hi[ax] + FAR))
        ).map(lambda j: j / 16)
        edge = st.integers(round(-FAR / h), round((hi[ax] - lo[ax] + FAR) / h)).map(
            lambda m: lo[ax] + m * h
        )
        return st.one_of(lattice, edge)

    pts = np.array(
        draw(st.lists(st.tuples(coord(0), coord(1)), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, 2)
    tie_prone = st.integers(0, 4).map(float)
    times = np.array(
        draw(st.lists(st.one_of(tie_prone, st.floats(0.0, 4.0)), min_size=n, max_size=n)),
        dtype=float,
    )
    colors = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8
    )
    return pts, times, colors, radii


def paint_both(batches, rect, h, kinds):
    """(best_time, best_black) of the library painter and of the reference
    after painting the same batches, each (pts, times, colors, radii)."""
    xs, ys = _cell_centers(rect, h)
    tables = []
    for paint in (_confetti_paint, dense_paint):
        best_time = np.full(len(xs) * len(ys), np.inf)
        best_black = np.zeros(len(xs) * len(ys), dtype=bool)
        for pts, times, colors, radii in batches:
            paint(best_time, best_black, pts, times, colors, radii, rect, h, kinds)
        tables.append((best_time, best_black))
    return tables


@settings(max_examples=500, deadline=None)
@given(batches(), st.booleans())
def test_paint_matches_dense_formula(batch, two_batches):
    kinds, h, rect, pts, times, colors, radii = batch
    todo = [(pts, times, colors, radii)]
    if two_batches:
        # a later chunk: shifted, strictly later, colours flipped
        later = times + (times.max(initial=0.0) + 1.0)
        todo.append((pts[::-1] + 0.25, later, 1 - colors, radii))
    (t_lib, b_lib), (t_ref, b_ref) = paint_both(todo, rect, h, kinds)
    assert np.array_equal(t_lib, t_ref)
    assert np.array_equal(b_lib, b_ref)


def test_paint_matches_dense_formula_on_every_cell_edge():
    """One grain on each cell edge of each window, radii ending on cell
    edges: where rounding of the window corner moves the centre's offset
    just past half a cell, the exact test must still decide."""
    one = (np.ones(1), np.zeros(1, dtype=np.uint8))
    for rect, h, kinds, j, ax in itertools.product(
        WINDOWS, (1 / 8, 1 / 16), (("ball", "ball"), ("box", "box")), range(8), (0, 1)
    ):
        lo, hi = np.asarray(rect.lo), np.asarray(rect.hi)
        for m in range(-j - 2, round((hi[ax] - lo[ax]) / h) + j + 3):
            pts = np.round(8 * (lo + hi)) / 16
            pts[ax] = lo[ax] + m * h
            todo = [(pts[None, :], *one, np.array([(j + 0.5) * h]))]
            (t_lib, _), (t_ref, _) = paint_both(todo, rect, h, kinds)
            assert np.array_equal(t_lib, t_ref), (rect, h, kinds, j, ax, m)


def test_equal_birth_times_go_to_the_lower_index():
    rect = BoxWindow((0.0, 0.0), (1.0, 1.0))
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    radii = np.full(3, 2.0)
    for colors in ([1, 0, 1], [0, 1, 0]):  # the tied grains 1 and 2 differ
        best_time = np.full(64, np.inf)
        best_black = np.zeros(64, dtype=bool)
        _confetti_paint(
            best_time, best_black, pts, np.array([2.0, 1.0, 1.0]),
            np.array(colors, dtype=np.uint8), radii, rect, 1 / 8, ("ball", "ball"),
        )
        assert np.all(best_time == 1.0)
        assert np.all(best_black == (colors[1] == 0))


def test_repaint_matches_sampled_over_several_chunks():
    rect = BoxWindow((0.0, 0.0), (4.0, 3.0))
    h = 0.125
    models = [
        ConfettiModel(0.5, GrainSpec("ball", FixedRadius(0.5)),
                      GrainSpec("ball", FixedRadius(0.5))),
        ConfettiModel(0.3, GrainSpec("ball", UniformRadius(0.3, 0.7)),
                      GrainSpec("box", FixedRadius(0.4))),
        ConfettiModel(0.6, GrainSpec("box", UniformRadius(0.25, 0.5)),
                      GrainSpec("box", UniformRadius(0.25, 0.5))),
    ]
    multi = 0
    for m, model in enumerate(models):
        for i in range(8):
            w = sample_confetti_world(model, rect, h, stream(431, m, i))
            ncell = w.black.size
            t_first = (math.log(ncell) - 2.0) / model.point_cover_rate()
            multi += w.config.marks["birth_time"].max() > t_first
            again = confetti_world_from_config(w.config, model, rect, h)
            assert np.array_equal(again.black, w.black)
    assert multi >= 12  # most worlds are painted in two or more chunks


@st.composite
def later_chunks(draw):
    """A batch painted onto a fresh table, that table with all but a few
    cells closed, and a second batch: strictly later (a sampled world's
    later chunk) or overlapping the table's times."""
    kinds, h, rect, *first = draw(batches())
    xs, ys = _cell_centers(rect, h)
    ncell = len(xs) * len(ys)
    best_time = np.full(ncell, np.inf)
    best_black = np.zeros(ncell, dtype=bool)
    _confetti_paint(best_time, best_black, *first, rect, h, kinds)
    # close every cell but at most 12 (the stencil has at least 25 offsets)
    still_open = draw(st.lists(st.integers(0, ncell - 1), max_size=12, unique=True))
    closed = np.ones(ncell, dtype=bool)
    closed[still_open] = False
    best_time[closed & np.isinf(best_time)] = 0.0
    best_time[~closed] = np.inf
    pts, times, colors, radii = draw(grains(rect, h, min_size=1))
    if draw(st.booleans()):
        times = times + (first[1].max(initial=0.0) + 1.0)  # keeps planted ties
    return kinds, h, rect, best_time, best_black, (pts, times, colors, radii)


@settings(max_examples=500, deadline=None)
@given(later_chunks())
def test_open_cell_path_matches_dense_formula(chunk):
    kinds, h, rect, best_time, best_black, later = chunk
    tables = []
    for paint in (_confetti_paint, dense_paint):
        t, b = best_time.copy(), best_black.copy()
        paint(t, b, *later, rect, h, kinds)
        tables.append((t, b))
    (t_lib, b_lib), (t_ref, b_ref) = tables
    assert np.array_equal(t_lib, t_ref)
    assert np.array_equal(b_lib, b_ref)


def test_open_cell_path_on_every_cell_edge():
    """The cell-edge sweep above, painted as a later chunk onto a table
    whose only open cells are those next to the grain's centre on the two
    cell columns (or rows) whose centres its edge meets: the open-cell path
    must round exactly like the stencil."""
    one = (np.ones(1), np.zeros(1, dtype=np.uint8))
    for rect, h, kinds, j, ax in itertools.product(
        WINDOWS, (1 / 8, 1 / 16), (("ball", "ball"), ("box", "box")), range(8), (0, 1)
    ):
        xs, ys = _cell_centers(rect, h)
        lo, hi = np.asarray(rect.lo), np.asarray(rect.hi)
        for m in range(-j - 2, round((hi[ax] - lo[ax]) / h) + j + 3):
            pts = np.round(8 * (lo + hi)) / 16
            pts[ax] = lo[ax] + m * h
            grain = (pts[None, :], *one, np.array([(j + 0.5) * h]))
            edge = np.zeros((len(xs), len(ys)), dtype=bool)
            c = int(np.floor((pts[1 - ax] - lo[1 - ax]) / h))
            across = slice(max(c - 2, 0), c + 3)
            for e in (m - j - 1, m + j):  # cell centres at distance r
                if 0 <= e < edge.shape[ax]:
                    edge[(e, across) if ax == 0 else (across, e)] = True
            open_cells = np.flatnonzero(edge)
            tables = []
            for paint in (_confetti_paint, dense_paint):
                t = np.zeros(edge.size)
                t[open_cells] = np.inf
                paint(t, np.zeros(edge.size, dtype=bool), *grain, rect, h, kinds)
                tables.append(t)
            assert np.array_equal(*tables), (rect, h, kinds, j, ax, m)


def test_crossings_and_duality_share_one_black_labelling(monkeypatch):
    """Both crossings and the duality XOR equal their values from freshly
    labeled rasters, whose face labels are compared as sets, and a
    crossing-plus-duality replica labels twice: the black raster once and
    the white raster once.  Besides sampled worlds, planted rasters put
    labels on the last face that exceed every label on the first face, with
    and without a crossing, and leave a raster all white."""
    from scipy import ndimage

    from poissonlab.percolation import (
        ConfettiWorld,
        confetti_duality_check,
        crossing,
    )
    from poissonlab.process import PointConfig

    calls = []
    label = ndimage.label

    def counting_label(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    def faces_share_label(mask, axis):
        tri = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        labels, _ = label(mask, structure=tri)
        first = set(labels.take(0, axis=axis).ravel().tolist()) - {0}
        return bool(first & set(labels.take(-1, axis=axis).ravel().tolist()))

    monkeypatch.setattr(ndimage, "label", counting_label)
    model = ConfettiModel(0.5, GrainSpec("ball", FixedRadius(0.5)),
                          GrainSpec("ball", FixedRadius(0.5)))
    rect = BoxWindow((0.0, 0.0), (4.0, 4.0))
    worlds = [
        sample_confetti_world(model, rect, 0.05, stream(433, i)) for i in range(40)
    ]
    apart = np.zeros((6, 5), dtype=bool)
    apart[0, 0] = apart[5, 2] = apart[5, 4] = True  # labels 1 | 2, 3
    joined = apart.copy()
    joined[:, 4] = True  # labels 1, 2 | 3, 2
    for black in (apart, joined, np.zeros((6, 5), dtype=bool)):
        empty = PointConfig(rect, np.empty((0, 2)))
        worlds.append(ConfettiWorld(model, rect, 0.05, black, empty))
    for w in worlds:
        calls.clear()
        hit = crossing(w)
        xor = confetti_duality_check(w)
        assert len(calls) == 2
        assert crossing(w, axis=1) == faces_share_label(w.black, 1)
        assert hit == faces_share_label(w.black, 0)
        assert xor == (hit != faces_share_label(~w.black, 1))
        assert xor
    assert [crossing(w) for w in worlds[-3:]] == [False, True, False]
