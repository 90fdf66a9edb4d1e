"""Executable stopping sets and continuous-time decision trees.

A stopping-set oracle answers "is x inside Z(mu)?".  The defining axiom --
Z(mu) is unchanged when everything outside Z(mu) is replaced by an
arbitrary configuration -- is verified empirically by
:func:`verify_stopping_axiom`; the distributional consequence (the region
outside Z(eta) can be resampled freely) by :func:`markov_property_check`.

The component exploration reveals the occupied components meeting a seed
and answers "x is inside" when a ball of radius ``dilation`` centred at x
could meet the seed or a revealed grain (a ball of radius r at c):
|x - c| - r <= dilation.

Oracles also answer a block of (probes, configuration) pairs at once
(``contains_block``; ``contains`` is the block of one).  The component
exploration builds one block world (``BooleanWorld.block``) for the whole
block; every other oracle loops over ``contains``.
:func:`verify_stopping_axiom` and :func:`revealment` draw each block's
inputs from the shared generator in the order of a per-trial loop, then
evaluate the block, which draws nothing, so their results are those of
that loop bit for bit.

CTDTs expose ``membership_at(t, x, mu)`` for an increasing family Z_t; a
CTDT is the stopping-set oracle of its terminal set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import stats

from .percolation import _DENSE_MAX, _EPS, BooleanModel, BooleanWorld
from .process import (
    BoxWindow,
    DiscreteWindow,
    PointConfig,
    ProcessSpec,
    _at_most,
    _bernoulli_se,
    _mean_se,
    superpose,
)

__all__ = [
    "StoppingSetOracle",
    "ConstantRegionSet",
    "BallGrowthCTDT",
    "ball_growth_ctdt",
    "ExplorationOracle",
    "component_exploration",
    "LineSeed",
    "SphereSeed",
    "RandomizedStoppingSet",
    "randomize",
    "NonAttainableFixture",
    "nonattainable_fixture",
    "BrokenNearestPointOracle",
    "entry_time",
    "verify_stopping_axiom",
    "AxiomReport",
    "revealment",
    "RevealmentReport",
    "expected_revealed_points",
    "markov_property_check",
    "MarkovReport",
    "probe_grid",
]


# ---------------------------------------------------------------------------
# Oracle interfaces


class StoppingSetOracle:
    """Base class: membership predicate Z(mu) evaluated at locations."""

    def contains(self, xs: np.ndarray, config: PointConfig) -> np.ndarray:
        raise NotImplementedError

    def contains_block(self, xs_list, configs, members=None) -> list[np.ndarray]:
        """``contains(xs, config)`` for each pair of a block, asked of
        ``members[b]`` (default: this oracle) for pair b."""
        if members is None:
            members = [self] * len(configs)
        return [m.contains(xs, c) for m, xs, c in zip(members, xs_list, configs)]


class ConstantRegionSet(StoppingSetOracle):
    """Deterministic region; trivially a stopping set."""

    def __init__(self, region: Callable[[np.ndarray], np.ndarray]):
        self.region = region

    def contains(self, xs, config):
        return np.asarray(self.region(np.asarray(xs)), dtype=bool)


class BrokenNearestPointOracle(StoppingSetOracle):
    """Deliberately broken: the OPEN ball around the origin with radius the
    distance to the nearest point of the configuration.

    The nearest point itself is outside the open ball, so replacing the
    outside by another configuration moves the radius: the axiom fails.
    """

    def contains(self, xs, config):
        xs = np.atleast_2d(xs)
        if config.size == 0:
            return np.ones(len(xs), dtype=bool)
        d_star = float(np.linalg.norm(np.atleast_2d(config.points), axis=1).min())
        return np.linalg.norm(xs, axis=1) < d_star


# ---------------------------------------------------------------------------
# Ball-growth CTDT (empty-space functional)


class BallGrowthCTDT(StoppingSetOracle):
    """Z_t(mu) = closed ball B(x0, tau(mu) ^ t) where tau is the distance
    from x0 to the nearest configuration point inside the target region W;
    ``contains`` answers for the terminal set B(x0, tau(mu))."""

    def __init__(self, region: Callable[[np.ndarray], np.ndarray], x0: np.ndarray):
        self.region = region
        self.x0 = np.asarray(x0, dtype=float)

    def tau(self, config: PointConfig) -> float:
        if config.size == 0:
            return math.inf
        pts = np.atleast_2d(config.points)
        in_w = np.asarray(self.region(pts), dtype=bool)
        if not in_w.any():
            return math.inf
        return float(np.linalg.norm(pts[in_w] - self.x0, axis=1).min())

    def membership_at(self, t: float, xs: np.ndarray, config: PointConfig):
        xs = np.atleast_2d(xs)
        radius = min(self.tau(config), t)
        return np.linalg.norm(xs - self.x0, axis=1) <= radius

    def contains(self, xs, config):
        return np.linalg.norm(np.atleast_2d(xs) - self.x0, axis=1) <= self.tau(config)


def ball_growth_ctdt(region: Callable[[np.ndarray], np.ndarray], x0) -> BallGrowthCTDT:
    return BallGrowthCTDT(region, x0)


# ---------------------------------------------------------------------------
# Component exploration (percolation stopping sets)


@dataclass(frozen=True)
class LineSeed:
    """Hyperplane section {x_axis = coord} clipped to the rect."""

    axis: int
    coord: float

    def near(self, xs: np.ndarray, thr: float) -> np.ndarray:
        """Whether a ball of radius ``thr`` at each row meets the line."""
        return np.abs(xs[:, self.axis] - self.coord) <= thr

    def touching(self, world: BooleanWorld, seeds=None) -> np.ndarray:
        """Grains meeting the section; in a block world each grain meets the
        seed of its own configuration in ``seeds`` (sections along this
        axis, one per configuration)."""
        coord = self.coord if world.replica is None else np.array(
            [seed.coord for seed in seeds]).take(world.replica)
        return world.grains_meeting_faces(self.axis, (coord,))[0]


@dataclass(frozen=True)
class SphereSeed:
    """Euclidean sphere of radius s around the origin."""

    s: float

    def near(self, xs: np.ndarray, thr: float) -> np.ndarray:
        """Whether a ball of radius ``thr`` at each row meets the sphere."""
        return np.abs(np.linalg.norm(xs, axis=1) - self.s) <= thr

    def touching(self, world: BooleanWorld, seeds=None) -> np.ndarray:
        """Grains meeting the sphere; ``seeds`` as for ``LineSeed``."""
        s = self.s if world.replica is None else np.array(
            [seed.s for seed in seeds]).take(world.replica)
        return world.grains_meeting_sphere(s)


Seed = LineSeed | SphereSeed


def _within(dx: np.ndarray, dy: np.ndarray, radii, thr) -> np.ndarray:
    """Whether a ball of radius ``thr`` at offset ``d = (dx, dy)`` from a
    ball of radius r can meet it: ``|d| - r <= thr``, rounded as
    ``np.linalg.norm(d) - r <= thr`` is (a sum of two squares has one
    rounding whatever the order)."""
    s = dx * dx
    s += dy * dy
    np.sqrt(s, out=s)
    s -= radii
    return s <= thr


def _near(xs: np.ndarray, centers: np.ndarray, radii: np.ndarray,
          thr: float) -> np.ndarray:
    """Mask of the rows x of ``xs`` where a ball of radius ``thr`` could
    meet some planar ball (``centers``, ``radii``): |x - c| - r <= thr.

    Every pair that is tested is tested by :func:`_within`, the formula of
    a dense probes x grains test, so the answer is the same bit for bit.
    Up to ``_DENSE_MAX`` pairs (or when thr + r_max <= 0, r_max the largest
    radius) every pair is tested in one broadcast.  Otherwise the probes are
    sorted once by the key ``s * band + y``, with s the index of the
    probe's x-strip of width ``strip`` >= thr + r_max (a pair within
    reach is at most thr + r apart along each axis), and each grain is tested
    only against the probes of its own and both neighbouring strips within
    ``strip`` of its own y: three ``searchsorted`` windows.  The strip
    width carries a margin that scales with the coordinates and the windows
    one that scales with the largest key, so rounding drops no pair.
    """
    if len(xs) == 0 or len(radii) == 0:
        return np.zeros(len(xs), dtype=bool)
    r_max = float(radii.max())
    reach = thr + r_max
    if len(xs) * len(radii) <= _DENSE_MAX or reach <= 0:
        return _within(xs[:, :1] - centers[:, 0], xs[:, 1:2] - centers[:, 1],
                       radii, thr).any(axis=1)
    x, y = np.ascontiguousarray(xs.T)
    cx, cy = centers.T
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    scale = max(abs(x0), abs(x1), abs(y0), abs(y1)) + abs(thr) + r_max
    strip = reach * (1.0 + 1e-9) + 8.0 * _EPS * scale
    band = y1 - y0 + 4.0 * strip
    s_probe = np.floor((x - x0) / strip)
    key = s_probe * band + (y - y0)
    order = np.argsort(key)
    key, x, y = key[order], x[order], y[order]
    s_last = float(s_probe.max())
    # a grain outside the probes' box is pulled to its edge, which only
    # adds candidates
    s_grain = np.clip(np.floor((cx - x0) / strip), -1.0, s_last + 1.0)
    y_grain = np.clip(cy - y0, -strip, y1 - y0 + strip)
    half = strip + 8.0 * _EPS * (s_last + 3.0) * band
    mid = (s_grain[:, None] + (-1.0, 0.0, 1.0)) * band + y_grain[:, None]
    first = np.searchsorted(key, mid - half, side="left")
    count = np.searchsorted(key, mid + half, side="right") - first
    per_grain = count.sum(axis=1)
    first, count = first.ravel(), count.ravel()
    skip = first - (np.cumsum(count) - count)
    pos = np.arange(per_grain.sum()) + np.repeat(skip, count)
    hit = _within(x.take(pos) - cx.repeat(per_grain),
                  y.take(pos) - cy.repeat(per_grain),
                  radii.repeat(per_grain), thr)
    out = np.zeros(len(xs), dtype=bool)
    out[order.take(pos.compress(hit))] = True
    return out


class ExplorationOracle(StoppingSetOracle):
    """The centres where a ball of radius ``dilation`` could meet the seed
    or S, the union of occupied components meeting the seed.

    A block of configurations is answered from one block world
    (``BooleanWorld.block``): each grain is tested against its own
    configuration's seed, and each configuration's probes against its own
    seed and revealed grains (``near``).  ``dilation`` must be finite and
    >= 0; it defaults to the radius law's bound.  ``_near`` reads two
    coordinates, so ``rect`` must be planar.  Members of a randomized
    family that share the model, rect, dilation and kind of seed (line
    axis) form one block with one seed each.
    """

    def __init__(
        self,
        model: BooleanModel,
        rect: BoxWindow,
        seed: Seed,
        dilation: Optional[float] = None,
    ):
        if rect.dim != 2:
            raise ValueError(f"explorations need a planar rect, got dimension {rect.dim}")
        self.model = model
        self.rect = rect
        self.seed = seed
        if dilation is None:
            dilation = model.grain.law.bound
            if dilation is None:
                raise ValueError("unbounded grains need an explicit dilation")
        self.dilation = float(dilation)
        if not (math.isfinite(self.dilation) and self.dilation >= 0.0):
            raise ValueError(f"dilation must be finite and >= 0, got {dilation!r}")
        self._block_key = (model, rect, self.dilation, type(seed),
                           getattr(seed, "axis", None))

    def contains(self, xs, config):
        return self.contains_block([xs], [config])[0]

    def contains_block(self, xs_list, configs, members=None):
        if members is None:
            seeds = [self.seed] * len(configs)
        elif all(getattr(m, "_block_key", None) == self._block_key for m in members):
            seeds = [m.seed for m in members]
        else:
            return super().contains_block(xs_list, configs, members)
        if not configs:
            return []
        world = BooleanWorld.block(configs, self.model, self.rect)
        comp = world.component_mask(seeds[0].touching(world, seeds))
        bounds = (0, world.n) if world.replica is None else np.searchsorted(
            world.replica, np.arange(len(configs) + 1))
        out = []
        for b, (xs, seed) in enumerate(zip(xs_list, seeds)):
            lo, hi = bounds[b], bounds[b + 1]
            keep = comp[lo:hi]
            xs = np.atleast_2d(xs)
            hit = seed.near(xs, self.dilation)
            hit |= _near(xs, world.points[lo:hi].compress(keep, axis=0),
                         world.radii[lo:hi].compress(keep), self.dilation)
            out.append(hit)
        return out


def component_exploration(
    model: BooleanModel,
    rect: BoxWindow,
    seed: Seed,
    dilation: Optional[float] = None,
) -> ExplorationOracle:
    return ExplorationOracle(model, rect, seed, dilation)


# ---------------------------------------------------------------------------
# Randomized stopping sets


class RandomizedStoppingSet:
    """Family Z^y with an independent randomization law for Y.

    Draws are explicit: ``draw(rng)`` returns y, ``member(y)`` the plain
    oracle, keeping every evaluation replayable.
    """

    def __init__(
        self,
        family: Callable[[object], StoppingSetOracle],
        law: Callable[[np.random.Generator], object],
    ):
        self.family = family
        self.law = law

    def draw(self, rng: np.random.Generator):
        return self.law(rng)

    def member(self, y) -> StoppingSetOracle:
        return self.family(y)


def randomize(
    family: Callable[[object], StoppingSetOracle],
    law: Callable[[np.random.Generator], object],
) -> RandomizedStoppingSet:
    return RandomizedStoppingSet(family, law)


# ---------------------------------------------------------------------------
# Non-attainable fixture (3-cell discrete space)


class NonAttainableFixture(StoppingSetOracle):
    """Stopping set on a 3-cell space that no continuous decision tree can
    attain; case table keyed by which cells are occupied."""

    def __init__(self, masses: tuple[float, float, float]):
        if len(masses) != 3 or any(m <= 0 for m in masses):
            raise ValueError("need three positive cell masses")
        self.masses = np.asarray(masses, dtype=float)

    def cells_mask(self, counts: np.ndarray) -> np.ndarray:
        x1, x2, x3 = (bool(c > 0) for c in counts)
        if x1 == x2 == x3:
            return np.array([True, True, True])
        if x1 and not x2:
            return np.array([True, True, False])
        if not x1 and x3:
            return np.array([True, False, True])
        if x2 and not x3:
            return np.array([False, True, True])
        raise AssertionError("unreachable case")  # pragma: no cover

    def contains(self, xs, config):
        mask = self.cells_mask(config.counts())
        return mask[np.asarray(xs, dtype=int)]

    def lam_in_cells(self, counts: np.ndarray) -> np.ndarray:
        """lambda(C_i intersect Z) for each cell i."""
        return self.masses * self.cells_mask(counts)


def nonattainable_fixture(masses) -> NonAttainableFixture:
    return NonAttainableFixture(tuple(masses))


# ---------------------------------------------------------------------------
# Entry times

_MONOTONE_SCAN = 16


def entry_time(
    ctdt,
    x: np.ndarray,
    config: PointConfig,
    resolution: Optional[float] = None,
    t_max: float = 1.0,
) -> float:
    """inf{t : x in Z_t(mu)} by bisection on [0, t_max]; inf -> math.inf.

    Resolution defaults to 1e-6 * t_max; both must be finite and > 0.  A scan
    of ``_MONOTONE_SCAN`` evenly spaced times guards against non-monotone
    membership curves.
    """
    if resolution is None:
        resolution = 1e-6 * t_max
    for name, value in (("t_max", t_max), ("resolution", resolution)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    x = np.atleast_2d(x)

    def member(t: float) -> bool:
        return bool(ctdt.membership_at(t, x, config)[0])

    vals = [member(t) for t in np.linspace(0.0, t_max, _MONOTONE_SCAN)]
    if any(a and not b for a, b in zip(vals, vals[1:])):
        raise RuntimeError("non-monotone CTDT detected during bisection")
    if not member(t_max):
        return math.inf
    if member(0.0):
        return 0.0
    lo, hi = 0.0, t_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Stopping-axiom verification


@dataclass
class AxiomReport:
    trials: int
    probes: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "probes": self.probes,
            "passed": self.passed,
            "failures": [
                {"trial": t, "probe": list(np.atleast_1d(p).astype(float))}
                for t, p in self.failures[:20]
            ],
            "failure_count": len(self.failures),
        }


# Configurations per block of the axiom and revealment loops.  Medians of 7
# interleaved rounds on a 2-core x86 VM with numpy 2.4, at blocks of 1, 8,
# 16, 32 and 64: 128 line and 128 sphere axiom trials (about 23 grains)
# took 127, 84, 72, 65 and 61 ms; 128 line-revealment samples at n = 20
# (about 175 grains) 96, 68, 64, 60 and 58 ms; 64 at n = 40 148, 130, 131,
# 122 and 134 ms.  Past 32 the gain is within the noise, and a block's
# memory keeps growing.
_BLOCK = 32


def _composite(mu: PointConfig, psi: PointConfig, inside: np.ndarray) -> PointConfig:
    """mu inside Z(mu) plus psi outside Z(mu), from ``inside``, the
    membership in Z(mu) of mu's points, then psi's (then any other probes)."""
    return superpose(mu.take(inside[: mu.size]),
                     psi.take(~inside[mu.size : mu.size + psi.size]))


def _outside_resampled(
    oracle: StoppingSetOracle, mu: PointConfig, psi: PointConfig
) -> PointConfig:
    """mu inside Z(mu) plus psi outside Z(mu): the outside of the stopping
    set replaced by another configuration."""
    return _composite(mu, psi, oracle.contains(np.concatenate([mu.points, psi.points]), mu))


def _probe_locations(process: ProcessSpec, count: int, rng) -> np.ndarray:
    if isinstance(process.window, DiscreteWindow):
        return np.arange(process.window.num_cells)
    return process.window.sample_uniform(rng, count)


def verify_stopping_axiom(
    oracle: StoppingSetOracle,
    process: ProcessSpec,
    trials: int,
    probes: int,
    rng: np.random.Generator,
) -> AxiomReport:
    """Replace everything outside Z(mu) by an independent configuration and
    re-check membership at probe locations; any flip is a counterexample.

    Each trial draws mu, the replacement psi and the probes, in that order.
    A block of ``_BLOCK`` trials then asks Z(mu) about mu's and psi's points
    and the probes in one call per trial, and Z(composite) about the probes.
    """
    report = AxiomReport(trials=trials, probes=probes)
    for start in range(0, trials, _BLOCK):
        draws = [
            (process.sample(rng), process.sample(rng),
             _probe_locations(process, probes, rng))
            for _ in range(min(_BLOCK, trials - start))
        ]
        inside = oracle.contains_block(
            [np.concatenate([mu.points, psi.points, xs]) for mu, psi, xs in draws],
            [mu for mu, _, _ in draws])
        after = oracle.contains_block(
            [xs for _, _, xs in draws],
            [_composite(mu, psi, hit) for (mu, psi, _), hit in zip(draws, inside)])
        for trial, ((_, _, xs), hit, now) in enumerate(zip(draws, inside, after), start):
            for b in np.flatnonzero(hit[len(hit) - len(xs):] != now):
                report.failures.append((trial, xs[b]))
    return report


# ---------------------------------------------------------------------------
# Revealment


@dataclass
class RevealmentReport:
    """``delta`` is a maximum over a finite probe grid, so it lower-bounds
    the supremum over locations; ``grid_spacing`` says how fine the grid is."""

    delta: float
    delta_se: float
    probes: np.ndarray
    probabilities: np.ndarray
    ses: np.ndarray
    samples: int
    grid_spacing: Optional[float]


def probe_grid(box: BoxWindow, spacing: float) -> np.ndarray:
    """Regular grid of cell centers covering the box."""
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"the probe spacing must be finite and > 0, got {spacing}")
    axes = [
        lo + (np.arange(max(1, int(round((hi - lo) / spacing)))) + 0.5)
        * ((hi - lo) / max(1, int(round((hi - lo) / spacing))))
        for lo, hi in zip(box.lo, box.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def revealment(
    oracle,
    process: ProcessSpec,
    probes: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    grid_spacing: Optional[float] = None,
) -> RevealmentReport:
    """Empirical P(x in Z(eta)) per probe; delta is the grid maximum.

    Randomized oracles get a fresh randomization draw per sample, after its
    eta, and that sample is asked of the drawn member.  Blocks of ``_BLOCK``
    samples are drawn, then evaluated at once.
    """
    probes = np.atleast_2d(probes) if not isinstance(
        process.window, DiscreteWindow
    ) else np.asarray(probes)
    counts = np.zeros(len(probes))
    randomized = isinstance(oracle, RandomizedStoppingSet)
    for start in range(0, samples, _BLOCK):
        etas, members = [], []
        for _ in range(min(_BLOCK, samples - start)):
            etas.append(process.sample(rng))
            members.append(oracle.member(oracle.draw(rng)) if randomized else oracle)
        for hit in members[0].contains_block([probes] * len(etas), etas, members):
            counts += hit
    p = counts / samples
    ses = _bernoulli_se(p, samples)
    best = int(np.argmax(p))
    return RevealmentReport(
        delta=float(p[best]),
        delta_se=float(ses[best]),
        probes=probes,
        probabilities=p,
        ses=ses,
        samples=samples,
        grid_spacing=grid_spacing,
    )


def expected_revealed_points(
    oracle: StoppingSetOracle,
    process: ProcessSpec,
    samples: int,
    rng: np.random.Generator,
    quad_grid: Optional[np.ndarray] = None,
) -> dict:
    """Estimate E[eta(Z)] and E[lambda(Z)]; the two must agree.

    lambda(Z) uses raster quadrature over ``quad_grid`` for box windows and
    exact cell masses for discrete ones.
    """
    eta_counts = np.empty(samples)
    lam_vals = np.empty(samples)
    discrete = isinstance(process.window, DiscreteWindow)
    if not discrete and quad_grid is None:
        raise ValueError("box windows need a quadrature grid")
    if discrete:
        quad_grid = np.arange(process.window.num_cells)
        masses = np.asarray(process.intensity.masses)
    else:
        cell_mass = process.mass / len(quad_grid)
    for i in range(samples):
        eta = process.sample(rng)
        hit = oracle.contains(np.concatenate([eta.points, quad_grid]), eta)
        eta_counts[i] = float(np.count_nonzero(hit[: eta.size]))
        if discrete:
            lam_vals[i] = float(np.sum(masses * hit[eta.size :]))
        else:
            lam_vals[i] = float(np.count_nonzero(hit[eta.size :]) * cell_mass)
    e_eta, se_eta = _mean_se(eta_counts)
    e_lam, se_lam = _mean_se(lam_vals)
    return {
        "e_eta": e_eta,
        "e_eta_se": se_eta,
        "e_lam": e_lam,
        "e_lam_se": se_lam,
        "passed": _at_most(abs(e_eta - e_lam), 0.0, se_eta + se_lam),
    }


# ---------------------------------------------------------------------------
# Markov property (two-sample tests)


_MARKOV_LEVEL = 0.01


@dataclass
class MarkovReport:
    names: list[str]
    p_values: list[float]
    samples: int

    @property
    def cutoff(self) -> float:
        """The level ``_MARKOV_LEVEL``, Bonferroni-split over the tests."""
        return _MARKOV_LEVEL / max(1, len(self.p_values))

    @property
    def passed(self) -> bool:
        return all(p >= self.cutoff for p in self.p_values)


def markov_property_check(
    oracle: StoppingSetOracle,
    process: ProcessSpec,
    functionals: Sequence[tuple[str, Callable[[PointConfig], float]]],
    samples: int,
    rng: np.random.Generator,
) -> MarkovReport:
    """Compare the laws of g(eta) and g(eta_Z + eta'_{X \\ Z}) with
    two-sample KS tests, Bonferroni-corrected across functionals."""
    vals_eta = np.empty((len(functionals), samples))
    vals_mix = np.empty((len(functionals), samples))
    for i in range(samples):
        eta = process.sample(rng)
        for j, (_, g) in enumerate(functionals):
            vals_eta[j, i] = g(eta)
        eta2 = process.sample(rng)
        mix = _outside_resampled(oracle, eta2, process.sample(rng))
        for j, (_, g) in enumerate(functionals):
            vals_mix[j, i] = g(mix)
    p_values = [
        float(stats.ks_2samp(vals_eta[j], vals_mix[j]).pvalue)
        for j in range(len(functionals))
    ]
    return MarkovReport(
        names=[name for name, _ in functionals],
        p_values=p_values,
        samples=samples,
    )
