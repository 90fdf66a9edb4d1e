"""Marked Poisson point processes on boxes and finite cell spaces.

A realization is a :class:`PointConfig`: point locations (coordinates in a
box window, or cell indices in a discrete window) plus optional mark
columns (radius, birth time, color).  Configurations are immutable values;
all sampling routines are pure functions of ``(inputs, rng)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "BoxWindow",
    "DiscreteWindow",
    "RadiusLaw",
    "FixedRadius",
    "UniformRadius",
    "ParetoRadius",
    "MarkLaw",
    "RadiusMarks",
    "ConfettiMarks",
    "IntensityModel",
    "HomogeneousIntensity",
    "CellIntensity",
    "ProcessSpec",
    "PointConfig",
    "restrict",
    "superpose",
    "thin",
    "mecke_check",
    "AuditReport",
    "config_to_csv",
]


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class BoxWindow:
    """Axis-aligned box [lo_1,hi_1] x ... x [lo_d,hi_d]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if not all(map(math.isfinite, (*self.lo, *self.hi))):
            raise ValueError(f"window bounds must be finite, got {self.lo} to {self.hi}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("window box must be nonempty")

    @property
    def dim(self) -> int:
        return len(self.lo)

    # The window is immutable, so its bounds are converted to (read-only)
    # arrays and its volume computed once, on first use.

    @cached_property
    def lo_array(self) -> np.ndarray:
        return _freeze(np.array(self.lo))

    @cached_property
    def hi_array(self) -> np.ndarray:
        return _freeze(np.array(self.hi))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.hi_array - self.lo_array))

    @cached_property
    def extent(self) -> np.ndarray:
        return _freeze(self.hi_array - self.lo_array)

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # numpy's uniform(lo, hi) computes lo + (hi - lo) * next_double, one
        # double per element in C order: the same draws and the same bits,
        # without its broadcasting set-up.
        return self.lo_array + self.extent * rng.random((n, self.dim))

    def pad(self, margin: float) -> "BoxWindow":
        return BoxWindow(
            tuple(l - margin for l in self.lo), tuple(h + margin for h in self.hi)
        )


@dataclass(frozen=True)
class DiscreteWindow:
    """Finite cell space {0, ..., num_cells-1}."""

    num_cells: int

    def __post_init__(self):
        if not (isinstance(self.num_cells, numbers.Integral) and self.num_cells >= 1):
            raise ValueError(f"num_cells must be an integer >= 1, got {self.num_cells!r}")


Window = BoxWindow | DiscreteWindow


# ---------------------------------------------------------------------------
# Radius laws (grain size distributions)


@dataclass(frozen=True)
class FixedRadius:
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"a fixed radius must be finite and positive, got {self.r}")

    @property
    def bound(self) -> Optional[float]:
        return self.r

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.r)

    def mean_power(self, k: float) -> float:
        return self.r**k


@dataclass(frozen=True)
class UniformRadius:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and 0 <= self.lo < self.hi):
            raise ValueError(
                f"a uniform radius law needs finite 0 <= lo < hi, got {self.lo}, {self.hi}"
            )

    @property
    def bound(self) -> Optional[float]:
        return self.hi

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def mean_power(self, k: float) -> float:
        # E R^k for R ~ U(lo, hi)
        lo, hi = self.lo, self.hi
        return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))


@dataclass(frozen=True)
class ParetoRadius:
    """Pareto(x_min, shape): survival (x_min/r)^shape for r >= x_min.

    E[R^k] is finite only for k < shape; declare ``alpha`` such that the
    (2+alpha)-moment is finite, i.e. alpha < shape - 2.
    """

    x_min: float
    shape: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.x_min, self.shape)):
            raise ValueError(
                "x_min and shape must be finite and positive, got"
                f" {self.x_min}, {self.shape}"
            )

    @property
    def bound(self) -> Optional[float]:
        return None

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        return self.x_min * u ** (-1.0 / self.shape)

    def survival(self, r: float) -> float:
        if r <= self.x_min:
            return 1.0
        return (self.x_min / r) ** self.shape

    def tail_moment(self, k: float, r0: float) -> float:
        """Integral of r^k Q(dr) over (r0, inf); needs shape > k."""
        if self.shape <= k:
            raise ValueError(f"moment of order {k} diverges for shape {self.shape}")
        r0 = max(r0, self.x_min)
        return self.shape * self.x_min**self.shape * r0 ** (k - self.shape) / (
            self.shape - k
        )

    def mean_power(self, k: float) -> float:
        return self.tail_moment(k, self.x_min)


RadiusLaw = FixedRadius | UniformRadius | ParetoRadius


# ---------------------------------------------------------------------------
# Mark laws


@dataclass(frozen=True)
class RadiusMarks:
    law: RadiusLaw

    def sample(self, rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
        return {"radius": self.law.sample(rng, n)}


@dataclass(frozen=True)
class ConfettiMarks:
    """Space-time marks: arrival time on [0, horizon], color, per-color grain.

    Color 0 is black (probability p), 1 is white.  The time dimension adds a
    factor ``horizon`` to the intensity mass.
    """

    p: float
    horizon: float
    black_law: RadiusLaw
    white_law: RadiusLaw

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")

    def sample(self, rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
        t = rng.uniform(0.0, self.horizon, size=n)
        color = (rng.random(n) >= self.p).astype(np.uint8)  # 0 = black
        r_black = self.black_law.sample(rng, n)
        r_white = self.white_law.sample(rng, n)
        radius = np.where(color == 0, r_black, r_white)
        return {"birth_time": t, "color": color, "radius": radius}


MarkLaw = RadiusMarks | ConfettiMarks


# ---------------------------------------------------------------------------
# Intensity models


@dataclass(frozen=True)
class HomogeneousIntensity:
    """Constant rate gamma per unit volume on a box window."""

    gamma: float
    marks: Optional[MarkLaw] = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    def total_mass(self, window: Window, factor: float = 1.0) -> float:
        """Mass over ``window`` at the rate gamma * factor (the rate is
        multiplied first, so factor 1 changes no bit)."""
        mass = self.gamma * factor * window.volume
        if isinstance(self.marks, ConfettiMarks):
            mass *= self.marks.horizon
        return mass

    def sample_locations(
        self, rng: np.random.Generator, window: BoxWindow, n: int
    ) -> np.ndarray:
        return window.sample_uniform(rng, n)


@dataclass(frozen=True)
class CellIntensity:
    """Per-cell masses on a discrete window."""

    masses: tuple[float, ...]
    marks: Optional[MarkLaw] = None

    def __post_init__(self):
        for m in self.masses:
            if not (math.isfinite(m) and m >= 0):
                raise ValueError(f"cell masses must be finite and >= 0, got {m}")

    def total_mass(self, window: Window, factor: float = 1.0) -> float:
        """Sum of the masses, each multiplied by ``factor`` first (factor 1
        changes no bit)."""
        return float(sum(m * factor for m in self.masses))

    def sample_locations(
        self, rng: np.random.Generator, window: DiscreteWindow, n: int
    ) -> np.ndarray:
        if n == 0:  # draws nothing, and all-zero masses have no probabilities
            return np.empty(0, dtype=np.int64)
        masses = np.asarray(self.masses, dtype=float)
        probs = masses / masses.sum()
        return rng.choice(window.num_cells, size=n, p=probs).astype(np.int64)


IntensityModel = HomogeneousIntensity | CellIntensity


# ---------------------------------------------------------------------------
# Point configurations


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointConfig:
    """Finite multiset of marked points; immutable after construction."""

    window: Window
    points: np.ndarray  # (n, d) float for boxes, (n,) int cell ids otherwise
    marks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(self.points))
        object.__setattr__(
            self, "marks", {k: _freeze(v) for k, v in self.marks.items()}
        )
        for key, col in self.marks.items():
            if len(col) != self.size:
                raise ValueError(f"mark column {key!r} has wrong length")

    @classmethod
    def _fresh(
        cls, window: Window, points: np.ndarray, marks: dict[str, np.ndarray]
    ) -> "PointConfig":
        """A config on arrays its caller has just built, of matching lengths
        and owned by nobody else: they are frozen in place, and the
        conversions and checks of public construction are skipped."""
        points.setflags(write=False)
        for col in marks.values():
            col.setflags(write=False)
        self = object.__new__(cls)
        self.__dict__.update(window=window, points=points, marks=marks)
        return self

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.window, DiscreteWindow)

    def counts(self) -> np.ndarray:
        """Per-cell counts (discrete windows only)."""
        if not self.is_discrete:
            raise TypeError("counts() needs a discrete window")
        return np.bincount(
            self.points.astype(np.int64), minlength=self.window.num_cells
        )

    def count_in(self, region: Callable[[np.ndarray], np.ndarray]) -> int:
        if self.size == 0:
            return 0
        return int(np.count_nonzero(region(self.points)))

    def take(self, mask: np.ndarray) -> "PointConfig":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.size,):
            raise ValueError(
                f"mask of shape {mask.shape} for a config of {self.size} points"
            )
        return PointConfig._fresh(
            self.window,
            self.points[mask],
            {k: v[mask] for k, v in self.marks.items()},
        )

    @classmethod
    def join(cls, configs: Sequence["PointConfig"]) -> "PointConfig":
        """The points of ``configs`` in order, on the first one's window, with
        every mark column concatenated in the same order: the one place
        where configurations are concatenated."""
        first = configs[0]
        if any(c.marks.keys() != first.marks.keys() for c in configs):
            raise ValueError("mark columns must match")
        return cls._fresh(
            first.window,
            np.concatenate([c.points for c in configs]),
            {k: np.concatenate([c.marks[k] for c in configs]) for k in first.marks},
        )

    @staticmethod
    def empty(window: Window, mark_names: tuple[str, ...] = ()) -> "PointConfig":
        if isinstance(window, DiscreteWindow):
            pts = np.empty(0, dtype=np.int64)
        else:
            pts = np.empty((0, window.dim))
        return PointConfig(window, pts, {k: np.empty(0) for k in mark_names})


# ---------------------------------------------------------------------------
# Sampling operations


@dataclass(frozen=True)
class ProcessSpec:
    """The Poisson process eta: a homogeneous intensity on a box, or cell
    masses on a discrete window of as many cells; other pairs are refused."""

    intensity: IntensityModel
    window: Window

    def __post_init__(self):
        space = DiscreteWindow if isinstance(self.intensity, CellIntensity) else BoxWindow
        if not isinstance(self.window, space):
            raise ValueError(f"{self.intensity} needs a {space.__name__}, got {self.window}")
        if space is DiscreteWindow and len(self.intensity.masses) != self.window.num_cells:
            raise ValueError(f"{len(self.intensity.masses)} cell masses for {self.window}")

    @property
    def mass(self) -> float:
        return self.intensity.total_mass(self.window)

    def sample(self, rng: np.random.Generator) -> "PointConfig":
        """Draw one realization of the process."""
        return _draw(self, self.mass, rng)


def _draw(process: ProcessSpec, mass: float, rng: np.random.Generator) -> PointConfig:
    """Poisson(mass) points of ``process``: the count, then :func:`_points`.
    ``mass`` sets the count alone; on cells the locations are normalised
    from the intensity's own masses."""
    if not math.isfinite(mass):
        raise ValueError("intensity mass over the window is not finite")
    return _points(process, int(rng.poisson(mass)), rng)


def _points(process: ProcessSpec, n: int, rng: np.random.Generator) -> PointConfig:
    """n points drawn from the intensity of ``process`` normalised to a
    probability on its window (on cells, from its unscaled masses): the
    locations, then the marks.  One point is the delta_x of the Poincare and
    OSSS audits and of :func:`mecke_check`."""
    intensity, window = process.intensity, process.window
    pts = intensity.sample_locations(rng, window, n)
    marks = intensity.marks.sample(rng, n) if intensity.marks is not None else {}
    return PointConfig._fresh(window, pts, marks)


def restrict(
    config: PointConfig, region: Callable[[np.ndarray], np.ndarray]
) -> PointConfig:
    """Keep exactly the points whose location satisfies ``region``."""
    if config.size == 0:
        return config
    return config.take(np.asarray(region(config.points), dtype=bool))


def superpose(a: PointConfig, b: PointConfig) -> PointConfig:
    """Multiset union of two configurations on the same window."""
    if a.window != b.window:
        raise ValueError("cannot superpose configs on different windows")
    return PointConfig.join((a, b))


def thin(
    config: PointConfig, keep_prob: float, rng: np.random.Generator
) -> PointConfig:
    """Keep each point independently with probability ``keep_prob``."""
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError("keep_prob must lie in [0, 1]")
    if keep_prob == 1.0 or config.size == 0:
        return config
    return config.take(rng.random(config.size) < keep_prob)


# ---------------------------------------------------------------------------
# Estimates with standard errors, and the one pass rule that reads them


def _at_most(stat, bound, se):
    """The pass rule of every statistical verdict: ``stat`` exceeds ``bound``
    by at most three standard errors (elementwise on arrays).  A two-sided
    check reads ``_at_most(abs(a - b), 0.0, se)``."""
    return stat <= bound + 3.0 * se


@dataclass
class AuditReport:
    """Two sides of an inequality or identity with their standard errors,
    and the verdict on them."""

    name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    samples: int
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        fields = {k: v for k, v in vars(self).items() if k != "extras"}
        return _plain({**fields, **self.extras})


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, which needs two values."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    _need_two(n)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def _need_two(n: int) -> None:
    if n < 2:
        raise ValueError(f"a variance needs at least 2 samples, got {n}")


def _var_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample variance with a delta-method standard error."""
    vals = np.asarray(vals, dtype=float)
    n = len(vals)
    _need_two(n)
    c = vals - vals.mean()
    m2 = float(np.mean(c**2))
    m4 = float(np.mean(c**4))
    var = m2 * n / (n - 1)
    se = math.sqrt(max(m4 - m2**2, 0.0) / n)
    return var, se


def _cov_se(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Paired sample covariance and the standard error of its mean product."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    _need_two(n)
    prods = (a - a.mean()) * (b - b.mean())
    cov = float(prods.sum() / (n - 1))
    se = float(prods.std(ddof=1) / math.sqrt(n))
    return cov, se


def _bernoulli_se(p_hat, n: int):
    """Standard error of a frequency (or an array of them) from n trials;
    p(1-p) is floored at 1e-12 so that p_hat in {0, 1} keeps a positive
    error.  A scalar frequency gives a Python float."""
    se = np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 1e-12) / n)
    return float(se) if np.ndim(se) == 0 else se


# ---------------------------------------------------------------------------
# Mecke equation check (n = 1)

_OVERFLOW_GUARD = 1e12


def mecke_check(
    f: Callable[[np.ndarray, PointConfig], float],
    process: ProcessSpec,
    samples: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Estimate both sides of the univariate Mecke identity.

    Left side: E[sum over points x of eta of f(x, eta)].  Right side:
    integral over x of E[f(x, eta + delta_x)] lambda(dx), estimated with x
    drawn from the normalized intensity and scaled by the total mass.
    """
    mass = process.mass
    lhs_vals = np.empty(samples)
    rhs_vals = np.empty(samples)
    for i in range(samples):
        eta = process.sample(rng)
        total = 0.0
        for j in range(eta.size):
            total += f(eta.points[j], eta)
        lhs_vals[i] = total

        x = _points(process, 1, rng)
        eta2 = process.sample(rng)
        rhs_vals[i] = mass * f(x.points[0], PointConfig.join((eta2, x)))
        if abs(lhs_vals[i]) > _OVERFLOW_GUARD or abs(rhs_vals[i]) > _OVERFLOW_GUARD:
            raise OverflowError("functional looks unbounded; Mecke check aborted")
    lhs, lhs_se = _mean_se(lhs_vals)
    rhs, rhs_se = _mean_se(rhs_vals)
    return AuditReport(
        "mecke", lhs, lhs_se, rhs, rhs_se, samples,
        passed=_at_most(abs(lhs - rhs), 0.0, lhs_se + rhs_se),
    )


# ---------------------------------------------------------------------------
# Result serialization: one CSV number format and one JSON normal form


def config_to_csv(config: PointConfig) -> str:
    mark_names = sorted(config.marks)
    if config.is_discrete:
        coord_names = ["cell"]
        coords = config.points.reshape(-1, 1)
    else:
        coord_names = [f"x{i}" for i in range(config.window.dim)]
        coords = config.points
    columns = [*coords.T, *(config.marks[k] for k in mark_names)]
    return _csv(coord_names + mark_names, zip(*columns))


def _csv(columns: Sequence[str], rows) -> str:
    """The header line, then one line per row: strings as they are, numbers
    through :func:`_fmt`."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    """An integer exactly; a float by ``.17g``, which reads back to the same
    bits, with -0.0 written as ``0``."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v) + 0.0, ".17g")


def _plain(value):
    """The JSON normal form of a result: dict keys as strings, tuples and
    arrays as lists, numpy scalars as Python scalars."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value
