"""Continuum percolation models: k-coverage Boolean model, confetti
(dead-leaves) coloring, and the planar Boolean model with heavy-tailed radii.

Connectivity conventions
------------------------
* Boolean grains are balls (the paper's Boolean-model results are for
  balls with random radii; boxes are confetti grains only).
* k = 1: exact via the grain intersection graph (one ``scipy.sparse.csgraph``
  breadth-first reach from the seed grains).  For convex grains,
  connectivity of the occupied union equals connectivity of the
  intersection graph.  ``_overlaps`` is
  the one strict overlap test (balls meet when |d|^2 < (r_i + r_j)^2): up
  to ``_DENSE_MAX`` ordered pairs (n * n, about 100 grains) on
  one n x n block, above it on the candidate pairs of one integer cell
  table plus dense rows for the grains above the reference reach.  Both
  give the same graph.
  Crossing events inside a rectangle use the grains meeting the
  rectangle; chains may overlap slightly outside it (within one grain
  diameter).  Sphere-reaching events (one-arm) are exact.  A raster layer
  is available as an independent cross-check.
* k >= 2 and confetti: rasterized occupancy at resolution ``h`` (reported
  with every result).  Raster components are labeled with
  ``scipy.ndimage.label``.  Confetti rasters use the self-matching
  triangular adjacency (4-neighbors plus one diagonal pair) for BOTH
  colors: the left-right/top-down crossing XOR is exact on every planar
  sample, and the two colors stay exchangeable, so the crossing
  probability at p = 1/2 is exactly 1/2.  (The asymmetric
  black-8/white-4 pairing also makes the XOR exact but biases black
  crossings by several percent at raster scale h = r/10.)
  Plain k >= 2 occupancy rasters use 8-adjacency; no duality is claimed
  for them.
* Every event asks whether two seed sets share a component.  On the grain
  graph one breadth-first reach from the first set answers it
  (``BooleanWorld.component_mask``); on a raster one label table over
  ``ndimage.label``'s labels, with background label 0 cleared
  (``_raster_linked``).
* Confetti: one first-arrival painter (``_confetti_paint``) folds each
  batch of grains into a per-cell (time, color) table.  The first time
  chunk, or a repaint from a record, is tested on each grain's stencil; a
  later chunk only against the few cells still uncolored.  Both use one
  exact test and one tie rule (the lower index wins among equal birth
  times).  A world labels its black raster once; crossings and the duality
  check share those labels.
* Windows are padded by the maximal grain radius; residual boundary
  effects are documented, not corrected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .process import (
    BoxWindow,
    ConfettiMarks,
    FixedRadius,
    HomogeneousIntensity,
    ParetoRadius,
    PointConfig,
    RadiusLaw,
    RadiusMarks,
    UniformRadius,
    _bernoulli_se,
    _csv,
    sample_poisson,
)
from .rng import replicate

__all__ = [
    "GrainSpec",
    "BooleanModel",
    "ConfettiModel",
    "BooleanWorld",
    "ConfettiWorld",
    "ThresholdScan",
    "sample_boolean_config",
    "sample_boolean_world",
    "sample_confetti_world",
    "confetti_world_from_config",
    "required_confetti_horizon",
    "crossing",
    "one_arm_event",
    "arm_event",
    "one_arm",
    "arm_probability",
    "crossing_probability",
    "threshold_scan",
    "one_arm_decay_fit",
    "estimate_critical",
    "confetti_duality_check",
    "confetti_duality_counts",
    "truncate_radii",
    "truncation_flips",
]


# ---------------------------------------------------------------------------
# Grains and models


@dataclass(frozen=True)
class GrainSpec:
    """Grain shape and size law.

    ``kind``: "ball" (Euclidean ball of the sampled radius) or "box"
    (axis-aligned cube of half-side = sampled radius).  A box is a confetti
    grain only: ``BooleanModel`` takes balls.
    """

    kind: str
    law: RadiusLaw

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ValueError(f"unknown grain kind {self.kind!r}")

    @property
    def max_radius(self) -> Optional[float]:
        b = self.law.bound
        if b is None:
            return None
        return b * (math.sqrt(2.0) if self.kind == "box" else 1.0)

    def mean_area(self) -> float:
        """Expected planar grain area (used for coverage-rate bookkeeping)."""
        if self.kind == "ball":
            return math.pi * self.law.mean_power(2)
        return 4.0 * self.law.mean_power(2)


@dataclass(frozen=True)
class BooleanModel:
    gamma: float
    grain: GrainSpec
    k: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if self.grain.kind != "ball":
            raise ValueError(f"Boolean grains are balls, got kind {self.grain.kind!r}")


@dataclass(frozen=True)
class ConfettiModel:
    """Space-time dead-leaves coloring; black arrives with probability p."""

    p: float
    black: GrainSpec
    white: GrainSpec
    horizon: Optional[float] = None  # None -> default rule at build time

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError("the horizon must be positive")

    def point_cover_rate(self) -> float:
        """Arrival rate of grains covering a fixed location (unit space-time
        intensity)."""
        return self.p * self.black.mean_area() + (1 - self.p) * self.white.mean_area()


# ---------------------------------------------------------------------------
# Sampling Boolean configurations (with exact handling of unbounded tails)


def _sample_rounded_rect(
    rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, r: float
) -> np.ndarray:
    """Uniform point in rect([lo,hi]) dilated by a disk of radius r (d=2)."""
    a, b = hi[0] - lo[0], hi[1] - lo[1]
    areas = np.array([a * b, r * b, r * b, a * r, a * r, math.pi * r * r])
    region = rng.choice(6, p=areas / areas.sum())
    if region == 0:
        return rng.uniform(lo, hi)
    if region in (1, 2):  # left / right strips
        x = lo[0] - rng.uniform(0, r) if region == 1 else hi[0] + rng.uniform(0, r)
        return np.array([x, rng.uniform(lo[1], hi[1])])
    if region in (3, 4):  # bottom / top strips
        y = lo[1] - rng.uniform(0, r) if region == 3 else hi[1] + rng.uniform(0, r)
        return np.array([rng.uniform(lo[0], hi[0]), y])
    # corner quarter disks
    corner = rng.integers(4)
    cx = lo[0] if corner in (0, 2) else hi[0]
    cy = lo[1] if corner in (0, 1) else hi[1]
    rho = r * math.sqrt(rng.random())
    base = {0: math.pi, 2: math.pi / 2, 1: 3 * math.pi / 2, 3: 0.0}[int(corner)]
    ang = base + rng.uniform(0, math.pi / 2)
    return np.array([cx + rho * math.cos(ang), cy + rho * math.sin(ang)])


def _tail_terms(law: ParetoRadius, a: float, b: float, r: float) -> np.ndarray:
    """a*b*T0, 2(a+b)*T1 and pi*T2 with T_j = E[R^j; R > r]: per unit
    intensity, the expected number of grains of radius above r meeting the
    a x b rectangle with their center in its interior, edge strips or
    corner quarter disks; their sum is the rectangle's tail mass."""
    t0, t1, t2 = (law.tail_moment(j, r) for j in range(3))
    return np.array([a * b * t0, 2.0 * (a + b) * t1, math.pi * t2])


def sample_boolean_config(
    model: BooleanModel,
    rect: BoxWindow,
    rng: np.random.Generator,
    r_split: Optional[float] = None,
) -> PointConfig:
    """Sample all grains whose support can meet ``rect``.

    Bounded laws: centers in rect padded by the support bound.  Unbounded
    laws: grains with radius <= r_split sampled on the r_split-padded
    window, plus the exact Poisson tail of larger grains touching the
    rectangle (size-biased radius, uniform center on the dilated rect).
    """
    grain = model.grain
    bound = grain.max_radius
    if bound is not None:
        return sample_poisson(HomogeneousIntensity(model.gamma, RadiusMarks(grain.law)),
                              rect.pad(bound), rng)

    law = grain.law
    if not isinstance(law, ParetoRadius):
        raise TypeError("unbounded sampling implemented for Pareto radii")
    if rect.dim != 2:
        raise NotImplementedError("unbounded grains: planar only")
    if r_split is None:
        raise ValueError("unbounded radius law needs r_split")

    # small grains: ordinary padded sampling, radii conditioned <= r_split
    padded = rect.pad(r_split)
    p_small = 1.0 - law.survival(r_split)
    n_small = rng.poisson(model.gamma * padded.volume * p_small)
    radii_small = np.empty(n_small)
    filled = 0
    while filled < n_small:  # rejection against the r_split cutoff
        cand = law.sample(rng, n_small - filled)
        cand = cand[cand <= r_split]
        radii_small[filled : filled + len(cand)] = cand
        filled += len(cand)
    small = PointConfig._fresh(padded, padded.sample_uniform(rng, n_small),
                               {"radius": radii_small})

    # exact tail: grains with radius > r_split touching rect
    lo = np.asarray(rect.lo)
    hi = np.asarray(rect.hi)
    comp_mass = model.gamma * _tail_terms(law, *(hi - lo), r_split)
    mass = comp_mass.sum()
    n_big = rng.poisson(mass)
    pts_big = np.empty((n_big, 2))
    radii_big = np.empty(n_big)
    shape = law.shape
    cut = max(r_split, law.x_min)
    for i in range(n_big):
        j = rng.choice(3, p=comp_mass / mass)
        radii_big[i] = cut * rng.random() ** (-1.0 / (shape - j))
        pts_big[i] = _sample_rounded_rect(rng, lo, hi, radii_big[i])

    big = PointConfig._fresh(padded, pts_big, {"radius": radii_big})
    return PointConfig.join((small, big))


def truncate_radii(
    config: PointConfig, model: BooleanModel, n: float, epsilon: float
) -> tuple[PointConfig, float]:
    """Drop grains with radius > r_n = n^(1-epsilon); return the analytic
    bound on the probability that this changes an event of the n x n square
    the configuration was sampled for.

    Only grains meeting the square enter its events, so the bound is the
    expected number of dropped grains meeting it, gamma times the square's
    tail mass above r_n (``_tail_terms``).  Requires 0 < epsilon <
    alpha/(2+alpha) where alpha is the declared heavy-tail moment margin.
    """
    bound = _truncation_bound(model, n, epsilon)
    return config.take(config.marks["radius"] <= float(n) ** (1.0 - epsilon)), bound


def _truncation_bound(model: BooleanModel, n: float, epsilon: float) -> float:
    """The bound of :func:`truncate_radii`, after checking its parameters."""
    law = model.grain.law
    if isinstance(law, ParetoRadius):
        alpha = law.shape - 2.0
        if alpha <= 0:
            raise ValueError("radius law lacks a finite 2+alpha moment")
        if not 0.0 < epsilon < alpha / (2.0 + alpha):
            raise ValueError("need 0 < epsilon < alpha/(2+alpha)")
    r_n = float(n) ** (1.0 - epsilon)
    if law.bound is not None:
        if law.bound > r_n:
            raise ValueError(
                "truncation radius below the bounded support is not a no-op"
            )
        return 0.0
    n = float(n)
    return float(model.gamma * _tail_terms(law, n, n, r_n).sum())


def truncation_flips(
    model: BooleanModel, n: float, epsilon: float, samples: int, path: tuple[int, ...]
) -> tuple[int, float]:
    """Over ``samples`` worlds on the n x n square, how many left-right
    crossings change when grains of radius > n^(1-epsilon) are dropped, and
    the analytic bound of :func:`truncate_radii` on that probability.

    Replica i draws from ``stream(*path, i)``, small grains split from the
    exact tail at r_split = n^(1-epsilon).  Unless a grain of radius above
    r_split meets the square, the truncated world holds the same grains in
    the same order as the full one, so no crossing is evaluated.
    """
    bound = _truncation_bound(model, n, epsilon)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    r_split = float(n) ** (1.0 - epsilon)

    def flipped(rng):
        cfg = sample_boolean_config(model, rect, rng, r_split=r_split)
        full = BooleanWorld(cfg, model, rect)
        if not np.any(full.radii > r_split):
            return False
        kept, _ = truncate_radii(cfg, model, n, epsilon)
        return crossing(full) != crossing(BooleanWorld(kept, model, rect))

    return sum(replicate(path, samples, flipped)), bound


# ---------------------------------------------------------------------------
# Boolean worlds (grain graph + optional raster layer)

# Pair tests up to this many pairs take one dense broadcast; larger ones an
# index (the cell table of the grain graph, the strip sweep of the
# exploration oracles' membership).  Measured crossovers, unit disks on a
# 2-core x86 VM with numpy 2.4: the dense grain graph builds in 39-45 us
# against 92-108 us for the cell table at about 51 grains (2,600 ordered
# pairs), 78-94 against 114-170 us at about 93 grains (8,700 pairs), and
# 111-133 against 132-185 us at about 117 grains (13,600 pairs); for probe
# sets the dense test takes 70-90 us against 80-140 us for the sweep at
# about 8,000 pairs, and from about 12,800 pairs on the sweep is faster.
_DENSE_MAX = 10_000
_EPS = float(np.finfo(float).eps)


def _cell_pairs(pts: np.ndarray, replica: Optional[np.ndarray], rect: BoxWindow,
                r_ref: float) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (i, j) of ``pts``, each unordered pair once, among them
    every pair of centres within 2*r_ref of each other on every axis, from
    one integer cell table; with ``replica`` (ascending configuration
    indices) only pairs of one configuration.  The rows are the centres of
    grains of reach up to r_ref that meet ``rect``.

    Cells are cubes of side >= 2*r_ref*(1 + 1e-9) + 8*eps*scale, scale =
    max |coordinate of rect.lo or rect.hi| + 2*r_ref, on a grid anchored
    one cell below ``rect.lo`` whose last cell on every axis stays empty.
    Keys (replica, c_0, ..., c_{d-1}) in mixed radix sort the rows once
    (stable; radix on 16-bit keys) into a start table (``bincount``,
    ``cumsum``).  The row at sorted position p takes the positions from
    p + 1 through the cell above its own on the last axis, and cells
    c_{d-1} - 1 .. c_{d-1} + 1 of every neighbouring line with a
    lexicographically positive offset (in the plane: the rest of its column
    and three cells of the next column), so every pair of neighbouring
    cells is visited once; an index one past either end of an axis lands in
    an empty cell of the same configuration.

    Rounding: a kept centre lies within about r_ref of the rect, so
    |x - x0| <= 2*scale with x0 = lo - side, and computing (x - x0) / side
    moves the difference of two centres by under 4*eps*scale / side cells,
    while a pair that passes ``_overlaps`` lies within 2*r_ref*(1 + 4*eps)
    on every axis: the margin keeps it within one cell per axis.  Clipping
    the indices to the table only moves cells closer.  Where the rect would
    need more cells than there are rows per configuration, the side grows
    to the largest extent over (rows per configuration)^(1/d); the table
    stays O(rows), and a larger side is still correct."""
    m, dim = pts.shape
    reps = 1 if replica is None or m == 0 else int(replica[-1]) + 1
    extent = [h - l for l, h in zip(rect.lo, rect.hi)]
    scale = max(map(abs, rect.lo + rect.hi)) + 2.0 * r_ref
    side = max(2.0 * r_ref * (1.0 + 1e-9) + 8.0 * _EPS * scale,
               max(extent) / max(1.0, (m / reps) ** (1.0 / dim)))
    shape = [int(e / side) + 4 for e in extent]
    strides = [1] * dim
    for a in range(dim - 1, 0, -1):
        strides[a - 1] = strides[a] * shape[a]
    cells = strides[0] * shape[0]
    # truncation is the floor on [0, shape - 2]
    u = pts - (rect.lo_array - side)
    u /= side
    np.minimum(u, np.subtract(shape, 2), out=u)
    np.maximum(u, 0.0, out=u)
    # the last axis plus each other axis times its stride (a matmul with
    # ``strides`` costs more on so few columns)
    cell = u.astype(np.intp)
    key = sum((cell[:, a] * strides[a] for a in range(dim - 1)), cell[:, -1])
    if replica is not None:
        key += replica * cells
        cells *= reps
    order = np.argsort(key.astype(np.min_scalar_type(cells)), kind="stable")
    start = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=cells), out=start[1:])
    # per sorted row, [first, end) of its own line and of each later line
    lines = [0] + [sum(o * s for o, s in zip(off, strides))
                   for off in itertools.product((-1, 0, 1), repeat=dim - 1)
                   if off > (0,) * (dim - 1)]
    first, count = start.take(np.add.outer((-1, 2), lines)[:, None, :]
                              + key.take(order)[:, None])
    first[:, 0] = np.arange(1, m + 1)
    count -= first
    # column by column: ``count.sum(axis=1)`` is slow on so few columns
    per_row = sum(count.T[1:], count[:, 0])
    first, count = first.ravel(), count.ravel()
    # position k of range r is first[r] + k - (pairs before range r)
    end = np.cumsum(count)
    first += count
    first -= end
    pos = np.repeat(first, count)
    pos += np.arange(len(pos))
    return order.repeat(per_row), order.take(pos)


class BooleanWorld:
    """Occupancy structure for one Boolean-model realization.

    Construction only keeps the grains meeting ``rect``. Each question
    builds the grain intersection graph, by one of two paths that apply
    ``_overlaps`` and give the same graph (the column order within a row
    may differ):

    * up to ``_DENSE_MAX`` ordered pairs (n * n, so about 100 grains) every
      pair is tested at once in an n x n mask; its row-major nonzeros are
      the CSR column indices and its row counts the index pointer;
    * above that, candidate pairs among the grains of reach up to a
      reference reach come from one integer cell table of cells wider than
      twice that reach (:func:`_cell_pairs`), and each grain above it (only
      unbounded laws have such grains) is tested against every grain in
      one dense row block.

    The CSR arrays list both directions of every pair, so the graph is
    symmetric. Each k=1 question asks which grains share a component with
    a seed set, and :meth:`component_mask` answers it with one
    breadth-first reach: the graph gains a virtual node n whose row lists
    the seeds, and the directed search from n visits exactly the seeds'
    components (no component labels are computed).

    The block form (:meth:`block`) is one world over the grains of many
    configurations of the same model and rect. Grain i carries the index
    ``replica[i]`` of its configuration (ascending, so each configuration's
    grains are one slice, in the order its own world keeps them), and the
    graph links only grains of the same configuration: the components of
    each configuration are those of its own world, and the face and sphere
    tests take one coordinate per grain. A world of one configuration has
    ``replica`` None and builds exactly as before.
    """

    def __init__(self, config: PointConfig, model: BooleanModel, rect: BoxWindow,
                 replica: Optional[np.ndarray] = None):
        self.model = model
        self.rect = rect
        self.config = config
        pts = np.atleast_2d(config.points)
        if pts.size == 0:
            pts = pts.reshape(0, config.window.dim)
        radii = _radius_marks(config)
        gap = _gap(pts, rect.lo_array, rect.hi_array)
        keep = _reaches(gap, radii)
        # take/compress gather rows several times faster than fancy indexing
        self.points = pts.compress(keep, axis=0)
        self.radii = np.asarray(radii).compress(keep)
        self.n = len(self.points)
        self.replica = None if replica is None else replica.compress(keep)
        # per-axis gap of every kept grain to the rect, for the face tests
        self._gap = gap.compress(keep, axis=0)

    @classmethod
    def block(cls, configs: Sequence[PointConfig], model: BooleanModel,
              rect: BoxWindow) -> "BooleanWorld":
        """One world over the grains of ``configs`` (see the class
        docstring); a block of one is the plain world."""
        if len(configs) == 1:
            return cls(configs[0], model, rect)
        replica = np.repeat(np.arange(len(configs)), [c.size for c in configs])
        return cls(PointConfig.join(configs), model, rect, replica)

    # -- intersection graph ------------------------------------------------

    def _dense_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR column indices and index pointer of the intersection graph,
        every ordered pair tested at once by ``_overlaps``.  When all radii
        are equal, r_i + r_j is one scalar, with the same bits."""
        n, radii = self.n, self.radii
        if n < 2:
            return np.empty(0, dtype=np.int32), np.zeros(n + 1, dtype=np.int32)
        if np.count_nonzero(radii != radii[0]):
            r_row, r_col = radii[:, None], radii
        else:
            r_row = r_col = radii[0]
        pts = self.points
        hit = _overlaps(pts[:, None], r_row, pts, r_col)
        hit.flat[:: n + 1] = False
        if self.replica is not None:
            hit &= self.replica[:, None] == self.replica
        # row-major nonzeros: rows ascend, and columns ascend within a row;
        # int32 positions (n * n is far below 2**31 here) divide faster
        flat = np.flatnonzero(hit).astype(np.int32)
        indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n, dtype=np.int32))
        return flat % np.int32(n), indptr.astype(np.int32)

    def _tree_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``_dense_csr``'s graph from cell-table candidate pairs.  Grains of
        radius up to r_ref (the law's bound, else the radii's 0.99 quantile)
        overlap only where every axis gap is below 2*r_ref, so
        :func:`_cell_pairs` finds their pairs among the grains of
        neighbouring cells.  Each grain above r_ref is tested against every
        grain in one dense row, a pair of two such grains in the row of its
        lower index, and these pairs follow the cell table's: the search
        reads a set, so their order within a row is free.  In a block world
        the table's leading key is the configuration index, so every
        candidate pair lies in one configuration; the dense rows keep only
        such pairs."""
        n = self.n
        if n < 2:
            return np.empty(0, dtype=np.int32), np.zeros(n + 1, dtype=np.int32)
        pts, radii, replica = self.points, self.radii, self.replica
        bound = self.model.grain.max_radius
        r_ref = bound if bound is not None else float(np.quantile(radii, 0.99))
        big = np.flatnonzero(radii > r_ref)
        # take/compress gather rows several times faster than fancy indexing
        if len(big):
            small = np.flatnonzero(radii <= r_ref)
            i, j = _cell_pairs(pts.take(small, 0),
                               None if replica is None else replica.take(small),
                               self.rect, r_ref)
            i, j = small.take(i), small.take(j)
        else:
            i, j = _cell_pairs(pts, replica, self.rect, r_ref)
        # one scalar radius when all are equal, with the same bits
        if np.count_nonzero(radii != radii[0]):
            r_i, r_j = radii.take(i), radii.take(j)
        else:
            r_i = r_j = radii[0]
        keep = _overlaps(pts.take(i, 0), r_i, pts.take(j, 0), r_j)
        i, j = i.compress(keep), j.compress(keep)
        if len(big):
            block = _overlaps(pts.take(big, 0)[:, None], radii.take(big)[:, None],
                              pts, radii)
            block[:, big] &= big > big[:, None]
            if replica is not None:
                block &= replica.take(big)[:, None] == replica
            row, col = np.nonzero(block)
            i = np.concatenate([i, big.take(row)])
            j = np.concatenate([j, col])
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        # Row keys in the smallest unsigned type holding n: numpy sorts
        # 16-bit keys by radix, in the same stable order as int64 keys and
        # several times faster.
        order = np.argsort(rows.astype(np.min_scalar_type(n)), kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cols.take(order).astype(np.int32), indptr

    def _graph(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR column indices and index pointer of the intersection
        graph, from the path that ``_DENSE_MAX`` selects."""
        if self.n * self.n <= _DENSE_MAX:
            return self._dense_csr()
        return self._tree_csr()

    def component_mask(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask of the grains in the components of the grains ``idx``.

        One directed breadth-first search on the (n+1) x (n+1) graph whose
        extra last row lists ``idx``; the other rows are symmetric, so the
        nodes it reaches from n are exactly the components of ``idx``.
        Searching only the seeded components is several times cheaper than
        labelling them all."""
        n = self.n
        mask = np.zeros(n + 1, dtype=bool)
        if len(idx):
            indices, indptr = self._graph()
            graph = csr_matrix(
                (np.ones(len(indices) + len(idx)),
                 np.concatenate([indices, np.asarray(idx, dtype=np.int32)]),
                 np.append(indptr, indptr[-1] + len(idx))),
                shape=(n + 1, n + 1),
            )
            mask[breadth_first_order(graph, n, directed=True,
                                     return_predecessors=False)] = True
        return mask[:n]

    # -- point queries -------------------------------------------------------

    def grains_covering(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.flatnonzero(_reaches(_gap(self.points, x, x), self.radii))

    def grains_meeting_faces(
        self, axis: int, coords: Sequence[float]
    ) -> list[np.ndarray]:
        """The grains intersecting each closed face {x_axis = c}, c in
        ``coords``, clipped to the rect's extent in the other axes; a ``c``
        may hold one coordinate per grain (a block world's per-configuration
        seeds).

        The faces reuse the clipped gap kept at construction, with their
        own axis zeroed; each face then adds only its own axis, and closed
        contact counts.  In the plane the test ``d*d + g*g <= r*r`` must
        round as ``_reaches`` on the two-column gap does, which holds because
        a sum of two squares rounds once whatever the order."""
        gap = self._gap.copy()
        gap[:, axis] = 0.0
        along = self.points[:, axis]
        g2 = np.einsum("ij,ij->i", gap, gap)
        r2 = self.radii * self.radii
        return [np.flatnonzero((along - c) ** 2 + g2 <= r2) for c in coords]

    def grains_meeting_sphere(self, s) -> np.ndarray:
        """Grains intersecting the sphere of radius s around the origin; ``s``
        may hold one radius per grain, as a face of ``grains_meeting_faces``."""
        if self.n == 0:
            return np.empty(0, dtype=int)
        dist = np.linalg.norm(self.points, axis=1)
        return np.flatnonzero(np.abs(dist - s) <= self.radii)

    def grains_meeting_linf_box(self, half: float) -> np.ndarray:
        """Grains intersecting the closed box [-half, half]^d."""
        return np.flatnonzero(_reaches(_gap(self.points, -half, half), self.radii))

    def grains_leaving_linf_box(self, half: float) -> np.ndarray:
        """Grains meeting the complement of the open box (-half, half)^d.

        The farthest l_inf coordinate of a grain is the center's plus the
        radius.
        """
        if self.n == 0:
            return np.empty(0, dtype=int)
        reach = np.max(np.abs(self.points), axis=1) + self.radii
        return np.flatnonzero(reach >= half)

    def connected(self, idx_a: np.ndarray, idx_b: np.ndarray) -> bool:
        """Whether a grain of ``idx_a`` and one of ``idx_b`` share a
        component."""
        return bool(self.component_mask(idx_a)[idx_b].any())

    # -- raster layer --------------------------------------------------------

    def occupancy_raster(self, resolution: float) -> np.ndarray:
        """Whether each cell centre of the rect grid is covered k times."""
        counts = _paint_counts(self.points, self.radii, self.rect, resolution)
        return counts >= self.model.k


def _overlaps(pi, ri, pj, rj) -> np.ndarray:
    """The strict overlap test of balls (pi, ri) and (pj, rj), broadcast
    against each other (the last axis of ``pi`` and ``pj`` is the
    coordinate): they meet when |d|^2, summed over the axes in order, is
    below (r_i + r_j)^2.  Swapping i and j gives the same bits."""
    rsum = ri + rj
    sq = pi[..., 0] - pj[..., 0]
    sq *= sq
    for k in range(1, pi.shape[-1]):
        d = pi[..., k] - pj[..., k]
        d *= d
        sq += d
    rsum *= rsum
    return sq < rsum


def _radius_marks(config: PointConfig) -> np.ndarray:
    """The radius of every grain of ``config`` (none for an empty one)."""
    radii = config.marks.get("radius")
    if radii is None:
        if config.size:
            raise ValueError("config lacks radius marks")
        radii = np.empty(0)
    return radii


def _gap(points: np.ndarray, lo, hi) -> np.ndarray:
    """Per-axis distance from each point to the closed box [lo, hi] (0 inside);
    with lo = hi = x it is |point - x| exactly."""
    gap = np.subtract(lo, points)
    np.maximum(gap, np.subtract(points, hi), out=gap)
    return np.maximum(0.0, gap, out=gap)


def _reaches(gap: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Mask of the grains whose closed ball reaches across ``gap``."""
    return np.einsum("ij,ij->i", gap, gap) <= np.asarray(radii) ** 2


def _cell_shape(rect: BoxWindow, h: float) -> tuple[int, int]:
    """(nx, ny): the raster of cells of side ``h`` over ``rect``.  Rasters
    read two coordinates, so a rect that is not planar is refused."""
    if rect.dim != 2:
        raise ValueError(f"rasters need a planar rect, got dimension {rect.dim}")
    lo, hi = rect.lo, rect.hi
    nx = max(1, int(round((hi[0] - lo[0]) / h)))
    ny = max(1, int(round((hi[1] - lo[1]) / h)))
    return nx, ny


def _cell_centers(rect: BoxWindow, h: float) -> tuple[np.ndarray, np.ndarray]:
    nx, ny = _cell_shape(rect, h)
    xs = rect.lo[0] + (np.arange(nx) + 0.5) * h
    ys = rect.lo[1] + (np.arange(ny) + 0.5) * h
    return xs, ys


def _paint_counts(pts, radii, rect, h) -> np.ndarray:
    xs, ys = _cell_centers(rect, h)
    counts = np.zeros((len(xs), len(ys)), dtype=np.int32)
    lo = np.asarray(rect.lo)
    for g in range(len(pts)):
        c = pts[g]
        r = radii[g]
        i0 = max(0, int((c[0] - r - lo[0]) / h))
        i1 = min(len(xs), int((c[0] + r - lo[0]) / h) + 1)
        j0 = max(0, int((c[1] - r - lo[1]) / h))
        j1 = min(len(ys), int((c[1] + r - lo[1]) / h) + 1)
        if i0 >= i1 or j0 >= j1:
            continue
        dx = xs[i0:i1, None] - c[0]
        dy = ys[None, j0:j1] - c[1]
        counts[i0:i1, j0:j1] += dx * dx + dy * dy <= r * r
    return counts


# ---------------------------------------------------------------------------
# Confetti worlds


def required_confetti_horizon(model: ConfettiModel, resolution: float) -> float:
    """Smallest horizon h with uncolored-cell bound exp(-a^2 b1 b2 h) <= 1e-8
    for planar cells of side a.

    b_i is the probability that a grain of color i contains a ball of
    radius a*sqrt(2) around its center (so a grain landing anywhere in a
    raster cell covers the whole cell).
    """
    a = resolution
    guard = a * math.sqrt(2)
    betas = []
    for spec in (model.black, model.white):
        law = spec.law
        if isinstance(law, FixedRadius):  # box half-side >= guard too
            beta = 1.0 if law.r >= guard else 0.0
        elif isinstance(law, UniformRadius):
            beta = max(0.0, min(1.0, (law.hi - max(law.lo, guard)) / (law.hi - law.lo)))
        elif isinstance(law, ParetoRadius):
            beta = law.survival(guard)
        else:  # pragma: no cover
            raise TypeError("unsupported radius law for horizon rule")
        betas.append(beta)
    rate = a**2 * betas[0] * betas[1]
    if rate <= 0:
        raise ValueError("grains too small relative to the raster; no horizon rule")
    return math.log(1.0 / 1e-8) / rate


class ConfettiWorld:
    """First-arrival coloring of a planar raster; records the grains used.

    The triangular-adjacency components of the black raster (``labels``)
    are labeled once and cached for the world's lifetime.
    """

    def __init__(
        self,
        model: ConfettiModel,
        rect: BoxWindow,
        resolution: float,
        black: np.ndarray,
        config: PointConfig,
    ):
        self.model = model
        self.rect = rect
        self.resolution = resolution
        self.black = black  # bool (nx, ny)
        self.config = config
        self._labels: Optional[np.ndarray] = None

    @property
    def labels(self) -> np.ndarray:
        """Component label of every black cell (0 on white cells)."""
        if self._labels is None:
            self._labels, _ = ndimage.label(self.black, _TRIANGULAR)
        return self._labels


def _confetti_paint(
    best_time: np.ndarray,
    best_black: np.ndarray,
    pts: np.ndarray,
    times: np.ndarray,
    colors: np.ndarray,
    radii: np.ndarray,
    rect: BoxWindow,
    h: float,
    kinds: tuple[str, str],
) -> None:
    """Fold a batch of grains into the per-cell first-arrival table.

    A grain covers a cell when ``dx*dx + dy*dy <= r*r`` (ball) or
    ``|dx|, |dy| <= r`` (box), where ``(dx, dy) = sub + o*h``
    is the offset ``sub`` (``|sub| <= h/2``) of the grain's center from
    its cell's center plus ``o = cell - grain_cell`` whole cells.  Grains
    are ranked by birth time with a stable sort (among equal times the
    lower index wins); grains whose cell lies outside ``[-k, n + k)`` cannot
    reach the window and are dropped.

    Only cells whose time is later than the batch's earliest grain can
    change (after a sampled world's first chunk: the uncolored cells).
    When they are fewer than the ``(2k+1)^2`` stencil offsets, every grain
    is tested against each of them and a cell's winner is its first
    covering grain in rank order.  Otherwise a stencil offset that no grain
    reaches even at ``r_max*(1 + 1e-9)`` is skipped, one that every grain
    covers even at ``r_min*(1 - 1e-9)`` is painted without a test, and only
    the ring between runs the exact test (the margins absorb rounding);
    ``np.minimum.at`` keeps the smallest covering rank per cell on a raster
    padded by ``2k`` cells.  A cell takes the winner's time and color if it
    is earlier than the time already in the table.
    """
    nx, ny = _cell_shape(rect, h)
    lo = np.asarray(rect.lo)
    ball_like = np.array([kinds[0] == "ball", kinds[1] == "ball"])
    reach = radii * (1.0 if ball_like.all() else math.sqrt(2.0))
    k = int(np.ceil(reach.max(initial=0.0) / h)) + 1
    cell = np.floor((pts - lo) / h)
    keep = np.flatnonzero(np.all((cell >= -k) & (cell < (nx + k, ny + k)), axis=1))
    order = keep[np.argsort(times[keep], kind="stable")]
    if len(order) == 0:
        return
    cell, radii, colors = cell[order], radii[order], colors[order]
    sub = lo + (cell + 0.5) * h - pts[order]
    is_ball = ball_like[colors]

    def covers(ox, oy):
        """Exact test of every ranked grain at the offsets ``(ox, oy)`` in
        whole cells (one row of offsets per grain, or one row for all)."""
        dx = sub[:, :1] + ox * h
        dy = sub[:, 1:] + oy * h
        covered = dx * dx + dy * dy <= (radii**2)[:, None]
        if not is_ball.all():
            half = radii[:, None]
            in_box = (np.abs(dx) <= half) & (np.abs(dy) <= half)
            covered = np.where(is_ball[:, None], covered, in_box)
        return covered

    open_cells = np.flatnonzero(best_time > times[order[0]])
    if len(open_cells) < (2 * k + 1) ** 2:
        ci, cj = np.divmod(open_cells, ny)
        covered = covers(ci - cell[:, :1], cj - cell[:, 1:])
        hit = covered.any(axis=0)
        cells = open_cells[hit]
        win = covered.argmax(axis=0)[hit]
    else:
        o = np.indices((2 * k + 1, 2 * k + 1)).reshape(2, -1) - k
        near = np.maximum(np.abs(o) * h - 0.5 * h, 0.0)
        far = np.abs(o) * h + 0.5 * h
        r_hi, r_lo = radii.max() * (1.0 + 1e-9), radii.min() * (1.0 - 1e-9)
        if is_ball.all():
            reachable = (near * near).sum(axis=0) <= r_hi * r_hi
        else:
            reachable = near.max(axis=0) <= r_hi
        if is_ball.any():
            sure = (far * far).sum(axis=0) <= r_lo * r_lo
        else:
            sure = far.max(axis=0) <= r_lo
        ring = reachable & ~sure

        stride = np.array([ny + 4 * k, 1])
        base = (cell.astype(np.int64) + 2 * k) @ stride
        delta = stride @ o
        first = np.full((nx + 4 * k) * stride[0], len(order))
        sure_cells = (base[:, None] + delta[sure]).ravel()
        np.minimum.at(first, sure_cells, np.repeat(np.arange(len(order)), sure.sum()))
        g, j = np.nonzero(covers(o[0, ring], o[1, ring]))
        np.minimum.at(first, base[g] + delta[ring][j], g)
        win = first.reshape(-1, stride[0])[2 * k : 2 * k + nx, 2 * k : 2 * k + ny].ravel()
        cells = np.flatnonzero(win < len(order))
        win = win[cells]

    t = times[order[win]]
    better = t < best_time[cells]
    cells, win = cells[better], win[better]
    best_time[cells] = t[better]
    best_black[cells] = colors[win] == 0


def confetti_world_from_config(
    config: PointConfig,
    model: ConfettiModel,
    rect: BoxWindow,
    resolution: float,
) -> ConfettiWorld:
    """Deterministic repaint from an explicit grain record.

    One batch through the same first-arrival painter as
    ``sample_confetti_world``: each cell takes the color of the earliest
    grain covering its center, and among exactly equal birth times the
    grain with the lower index in the record wins.  Grains anywhere in the
    plane are accepted; those that cannot reach the window are dropped.
    """
    best_time, best_black = _open_table(rect, resolution)
    marks = config.marks
    _confetti_paint(
        best_time, best_black,
        np.atleast_2d(config.points) if config.size else np.empty((0, 2)),
        marks.get("birth_time", np.empty(0)),
        marks.get("color", np.empty(0, dtype=np.uint8)),
        marks.get("radius", np.empty(0)), rect, resolution,
        (model.black.kind, model.white.kind),
    )
    return _painted_world(
        model, rect, resolution, best_time, best_black, config, "the grain record"
    )


def _open_table(rect: BoxWindow, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """The first-arrival table of a raster no grain has reached yet: per
    cell the arrival time (``inf``) and whether the arrival is black."""
    nx, ny = _cell_shape(rect, resolution)
    return np.full(nx * ny, np.inf), np.zeros(nx * ny, dtype=bool)


def _painted_world(
    model: ConfettiModel, rect: BoxWindow, resolution: float, best_time: np.ndarray,
    best_black: np.ndarray, config: PointConfig, source: str,
) -> ConfettiWorld:
    """The world of a filled first-arrival table.  A cell that ``source``
    left uncolored is an error naming the horizon the model needs."""
    if np.any(np.isinf(best_time)):
        needed = required_confetti_horizon(model, resolution)
        raise RuntimeError(
            f"{source} left uncolored cells; need horizon >= {needed:.3g}"
        )
    black = best_black.reshape(_cell_shape(rect, resolution))
    return ConfettiWorld(model, rect, resolution, black, config)


def sample_confetti_world(
    model: ConfettiModel,
    rect: BoxWindow,
    resolution: float,
    rng: np.random.Generator,
) -> ConfettiWorld:
    """Sample a confetti raster by first-arrival painting.

    Grains arrive in chunks of time, each one unit-rate Poisson draw of
    ``ConfettiMarks`` over the chunk's duration on the window padded by the
    largest grain, its birth times shifted to the chunk's start.  Every
    chunk goes through the one painter, which ranks the chunk by birth time
    (among exactly equal times the lower index wins) and keeps the first
    arrival per cell.  Later chunks have strictly later times, so colored
    cells keep their color and the painter tests a later chunk only against
    the cells still open.
    Painting stops once every cell is colored, or fails with the required
    horizon if the declared horizon is exhausted first.  The record of all
    chunks, their ``PointConfig.join``, repaints to the same raster with
    ``confetti_world_from_config``.
    """
    horizon = model.horizon
    if horizon is None:
        horizon = required_confetti_horizon(model, resolution)
    bounds = [s.max_radius for s in (model.black, model.white)]
    if any(b is None for b in bounds):
        raise ValueError("confetti grains must be bounded")
    padded = rect.pad(max(bounds))
    best_time, best_black = _open_table(rect, resolution)
    ncell = len(best_time)
    kinds = (model.black.kind, model.white.kind)

    rate_pt = model.point_cover_rate()
    t_first = (math.log(ncell) - 2.0) / rate_pt if rate_pt > 0 else horizon
    t_first = min(horizon, max(t_first, 1.0 / max(rate_pt, 1e-9)))
    t_chunk = 4.0 / rate_pt if rate_pt > 0 else horizon
    t_lo = 0.0
    chunks: list[PointConfig] = []
    while t_lo < horizon:
        t_hi = min(horizon, t_lo + (t_chunk if chunks else t_first))
        marks = ConfettiMarks(model.p, t_hi - t_lo, model.black.law, model.white.law)
        chunk = sample_poisson(HomogeneousIntensity(1.0, marks), padded, rng)
        chunk = PointConfig(padded, chunk.points, {
            **chunk.marks, "birth_time": chunk.marks["birth_time"] + t_lo
        })
        chunks.append(chunk)
        _confetti_paint(
            best_time, best_black, chunk.points, chunk.marks["birth_time"],
            chunk.marks["color"], chunk.marks["radius"], rect, resolution, kinds,
        )
        t_lo = t_hi
        if not np.any(np.isinf(best_time)):
            break
    return _painted_world(
        model, rect, resolution, best_time, best_black, PointConfig.join(chunks),
        f"horizon {horizon:g}"
    )


# ---------------------------------------------------------------------------
# Events and queries

PercWorld = BooleanWorld | ConfettiWorld


def sample_boolean_world(
    model: BooleanModel,
    rect: BoxWindow,
    rng: np.random.Generator,
) -> BooleanWorld:
    return BooleanWorld(sample_boolean_config(model, rect, rng), model, rect)


# 4-neighbors plus the (+1,+1)/(-1,-1) diagonal pair: self-matching
# (triangular-lattice) adjacency, invariant under transposition
_TRIANGULAR = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=int)


def _raster_linked(labels: np.ndarray, a, b) -> bool:
    """Whether one component of a labeled raster (``ndimage.label``, so
    the background is label 0) holds a cell of ``a`` and a cell of ``b``;
    each is an index or a boolean mask of the raster."""
    table = np.zeros(labels.max(initial=0) + 1, dtype=bool)
    table[labels[a]] = True
    table[0] = False
    return bool(table[labels[b]].any())


def _labels_cross(labels: np.ndarray, axis: int) -> bool:
    """Whether one component of a labeled raster meets both faces normal
    to ``axis``."""
    face = (slice(None),) * axis
    return _raster_linked(labels, face + (0,), face + (-1,))


def crossing(
    world: PercWorld,
    axis: int = 0,
    resolution: Optional[float] = None,
) -> bool:
    """Side-to-side crossing of the world's rectangle along ``axis``."""
    if isinstance(world, ConfettiWorld):
        return _labels_cross(world.labels, axis)
    if world.model.k == 1:
        rect = world.rect
        a, b = world.grains_meeting_faces(axis, (rect.lo[axis], rect.hi[axis]))
        return world.connected(a, b)
    _, labels, _ = _occupied_labels(world, resolution)
    return _labels_cross(labels, axis)


def _default_resolution(model: BooleanModel) -> float:
    """Default raster cell: an eighth of the smallest grain radius r0."""
    law = model.grain.law
    if isinstance(law, FixedRadius):
        r0 = law.r
    elif isinstance(law, UniformRadius):
        r0 = law.lo if law.lo > 0 else law.hi / 2.0
    elif isinstance(law, ParetoRadius):
        r0 = law.x_min
    else:  # pragma: no cover
        raise ValueError("raster queries need an explicit resolution")
    return r0 / 8.0


def _occupied_labels(
    world: BooleanWorld, h: Optional[float] = None
) -> tuple[float, np.ndarray, tuple]:
    """The raster cell h of a k >= 2 world (default: an eighth of the
    smallest radius), the 8-adjacency labels of its occupied cells and the
    cell centres (xs, ys)."""
    if h is None:
        h = _default_resolution(world.model)
    labels, _ = ndimage.label(world.occupancy_raster(h), np.ones((3, 3), dtype=int))
    return h, labels, _cell_centers(world.rect, h)


def _require_fits(world: BooleanWorld, s: float) -> None:
    lo = np.asarray(world.rect.lo)
    hi = np.asarray(world.rect.hi)
    if np.any(lo > -s) or np.any(hi < s):
        raise ValueError(f"event radius {s} does not fit inside the world rect")


def one_arm_event(world: BooleanWorld, s: float) -> bool:
    """Origin connected to the Euclidean sphere of radius s (k=1 exact)."""
    _require_fits(world, s)
    if world.model.k == 1:
        a = world.grains_covering(np.zeros(world.config.window.dim))
        b = world.grains_meeting_sphere(s)
        return world.connected(a, b)
    h, labels, (xs, ys) = _occupied_labels(world)
    origin = (int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys))))
    ring = np.abs(np.hypot(xs[:, None], ys[None, :]) - s) <= h
    return _raster_linked(labels, origin, ring)


def arm_event(world: BooleanWorld, r: float, s: float) -> bool:
    """l_inf annulus crossing B_r^inf -> boundary of B_s^inf.

    Convention: the event holds automatically when s <= r.
    """
    if s <= r:
        return True
    _require_fits(world, s)
    if world.model.k == 1:
        a = world.grains_meeting_linf_box(r)
        b = world.grains_leaving_linf_box(s)
        return world.connected(a, b)
    _, labels, (xs, ys) = _occupied_labels(world)
    ax, ay = np.abs(xs)[:, None], np.abs(ys)[None, :]
    return _raster_linked(labels, (ax <= r) & (ay <= r), np.maximum(ax, ay) >= s)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _frequency(
    path: tuple[int, ...], samples: int, event: Callable[[np.random.Generator], bool]
) -> tuple[float, float]:
    """Frequency of ``event`` over the replicas of ``path``, with its
    standard error."""
    p = sum(replicate(path, samples, event)) / samples
    return p, _bernoulli_se(p, samples)


def _centred_box(model: BooleanModel, s: float) -> BoxWindow:
    """The square [-s, s]^2 padded by the largest grain (0 if unbounded)."""
    pad = model.grain.max_radius or 0.0
    return BoxWindow((-s - pad, -s - pad), (s + pad, s + pad))


def one_arm(
    model: BooleanModel, s: float, samples: int, path: tuple[int, ...]
) -> tuple[float, float]:
    """theta_s estimate: P(origin connected to the sphere of radius s)."""
    rect = _centred_box(model, s)
    return _frequency(path, samples, lambda rng: one_arm_event(
        sample_boolean_world(model, rect, rng), s))


def arm_probability(
    model: BooleanModel, r: float, s: float, samples: int, path: tuple[int, ...]
) -> tuple[float, float]:
    if not r < s:
        raise ValueError("arm event needs r < s")
    rect = _centred_box(model, s)
    return _frequency(path, samples, lambda rng: arm_event(
        sample_boolean_world(model, rect, rng), r, s))


def crossing_probability(
    model: BooleanModel | ConfettiModel,
    rect: BoxWindow,
    samples: int,
    path: tuple[int, ...],
    resolution: Optional[float] = None,
) -> tuple[float, float]:
    def crossed(rng):
        if isinstance(model, ConfettiModel):
            world = sample_confetti_world(model, rect, resolution, rng)
        else:
            world = sample_boolean_world(model, rect, rng)
        return crossing(world, resolution=resolution)

    return _frequency(path, samples, crossed)


@dataclass
class ThresholdScan:
    params: np.ndarray
    n: float
    estimates: np.ndarray
    ses: np.ndarray
    samples: int
    seed: int

    def to_csv(self) -> str:
        return _csv(
            ["param", "n", "estimate", "se", "samples", "seed"],
            ((p, self.n, e, s, self.samples, self.seed)
             for p, e, s in zip(self.params, self.estimates, self.ses)),
        )


def threshold_scan(
    build: Callable[[float], BooleanModel | ConfettiModel],
    param_grid: np.ndarray,
    n: float,
    samples: int,
    seed: int,
    event: str = "cross",
    resolution: Optional[float] = None,
) -> ThresholdScan:
    """Crossing probability (or theta_n) of the model ``build(param)`` on the
    n x n square across a sorted parameter grid; grid point j runs on the
    replica path ``(seed, j)``."""
    param_grid = np.asarray(param_grid, dtype=float)
    if np.any(np.diff(param_grid) <= 0):
        raise ValueError("parameter grid must be strictly increasing")
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    est = np.empty(len(param_grid))
    ses = np.empty(len(param_grid))
    for j, p in enumerate(param_grid):
        model = build(p)
        if event == "cross":
            est[j], ses[j] = crossing_probability(
                model, rect, samples, (seed, j), resolution=resolution
            )
        elif event == "one_arm" and isinstance(model, ConfettiModel):
            raise ValueError("one_arm scans need a Boolean model, not confetti")
        elif event == "one_arm":
            est[j], ses[j] = one_arm(model, n, samples, (seed, j))
        else:
            raise ValueError(f"unsupported scan event {event!r}")
    return ThresholdScan(param_grid, n, est, ses, samples, seed)


def one_arm_decay_fit(
    model: BooleanModel, s_values: np.ndarray, samples: int, path: tuple[int, ...]
) -> dict:
    """Fit log theta_s ~ a + b*s by reusing max-reach distances.

    Per replica the maximal sphere radius reached from the origin is
    computed once; theta_s estimates for every s share the replicas.
    """
    s_values = np.asarray(s_values, dtype=float)
    rect = _centred_box(model, float(s_values.max()))

    def max_reach(rng) -> float:
        world = sample_boolean_world(model, rect, rng)
        origin = world.grains_covering(np.zeros(world.config.window.dim))
        if len(origin) == 0:
            return 0.0
        member = world.component_mask(origin)
        dist = np.linalg.norm(world.points[member], axis=1) + world.radii[member]
        return dist.max()

    reach = np.array(replicate(path, samples, max_reach), dtype=float)
    theta = np.array([(reach >= s).mean() for s in s_values])
    se = _bernoulli_se(theta, samples)
    ok = theta > 0
    y = np.log(theta[ok])
    x = s_values[ok]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return {
        "s": s_values,
        "theta": theta,
        "se": se,
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": float(r2),
    }


_MAX_ROUNDS = 40


def estimate_critical(
    prob_at: Callable[[float, int, int], tuple[float, float]],
    lo: float,
    hi: float,
    tolerance: float,
    base_samples: int = 200,
) -> tuple[float, float]:
    """Stochastic bisection for the parameter with event probability 1/2.

    ``prob_at(param, samples, round_idx)`` returns (estimate, se).  Sample
    size grows when the estimate is statistically indistinguishable from
    1/2; at most ``_MAX_ROUNDS`` estimates are made.  Returns (estimate,
    half-width CI combining bracket and noise).  The tolerance must be
    positive and finite, and the bracket finite with lo < hi; both are
    checked before any estimate.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"the bracket must be finite with lo < hi, got [{lo}, {hi}]")
    p_lo, se_lo = prob_at(lo, base_samples, 0)
    p_hi, se_hi = prob_at(hi, base_samples, 1)
    if not (p_lo < 0.5 < p_hi):
        raise ValueError(
            f"invalid bracket: P({lo})={p_lo:.3f}, P({hi})={p_hi:.3f} must straddle 1/2"
        )
    round_idx = 2
    while hi - lo > tolerance and round_idx < _MAX_ROUNDS:
        mid = 0.5 * (lo + hi)
        samples = base_samples
        while True:
            p, se = prob_at(mid, samples, round_idx)
            round_idx += 1
            if abs(p - 0.5) > 2.0 * se or samples >= 16 * base_samples:
                break
            samples *= 2
        if p > 0.5:
            hi = mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return mid, 0.5 * (hi - lo) + tolerance


def confetti_duality_counts(
    model: ConfettiModel, rect: BoxWindow, resolution: float, samples: int,
    path: tuple[int, ...],
) -> tuple[int, int]:
    """Over ``samples`` sampled worlds: how many cross left-right, and on how
    many the duality XOR fails."""

    def outcome(rng) -> tuple[bool, bool]:
        world = sample_confetti_world(model, rect, resolution, rng)
        return crossing(world), not confetti_duality_check(world)

    pairs = replicate(path, samples, outcome)
    return sum(c for c, _ in pairs), sum(v for _, v in pairs)


def confetti_duality_check(world: ConfettiWorld) -> bool:
    """XOR of (black left-right crossing, white top-down crossing).

    Both colors use the self-matching triangular adjacency, so exactly one
    of the two crossings exists on every planar sample and the two colors
    remain exchangeable at p = 1/2.  The black labels are the world's
    cached ones; the white raster is labeled here.
    """
    black_lr = _labels_cross(world.labels, axis=0)
    white_td = _labels_cross(ndimage.label(~world.black, _TRIANGULAR)[0], axis=1)
    return black_lr != white_td
