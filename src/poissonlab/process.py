"""Marked Poisson point processes on boxes and finite cell spaces.

A realization is a :class:`PointConfig`: point locations (coordinates in a
box window, or cell indices in a discrete window) plus optional mark
columns (radius, birth time, color).  Configurations are immutable values;
all sampling routines are pure functions of ``(inputs, rng)``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

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
    "sample_poisson",
    "restrict",
    "superpose",
    "thin",
    "mecke_check",
    "AuditReport",
    "config_to_csv",
    "config_from_csv",
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

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo_array) & (pts <= self.hi_array), axis=1)

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
        if self.num_cells <= 0:
            raise ValueError("need at least one cell")


Window = BoxWindow | DiscreteWindow


# ---------------------------------------------------------------------------
# Radius laws (grain size distributions)


@dataclass(frozen=True)
class FixedRadius:
    r: float

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
        if self.x_min <= 0 or self.shape <= 0:
            raise ValueError("x_min and shape must be positive")

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
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

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
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    def total_mass(self, window: Window, factor: float = 1.0) -> float:
        """Mass over ``window`` at the rate gamma * factor (the rate is
        multiplied first, so factor 1 changes no bit)."""
        if not isinstance(window, BoxWindow):
            raise TypeError("homogeneous intensity needs a box window")
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
        if any(m < 0 for m in self.masses):
            raise ValueError("cell masses must be nonnegative")

    def total_mass(self, window: Window) -> float:
        if not isinstance(window, DiscreteWindow):
            raise TypeError("cell intensity needs a discrete window")
        if len(self.masses) != window.num_cells:
            raise ValueError("mass vector does not match window cell count")
        return float(sum(self.masses))

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

    def add_points(
        self, pts: np.ndarray, marks: Optional[dict[str, np.ndarray]] = None
    ) -> "PointConfig":
        """New config with extra points appended: eta + delta_x in the Mecke
        check and the chaos audits."""
        pts = np.atleast_2d(pts) if not self.is_discrete else np.atleast_1d(pts)
        marks = marks or {}
        if marks.keys() != self.marks.keys() and self.size > 0:
            raise ValueError("mark columns must match to append points")
        new_marks = {}
        for k, col in self.marks.items():
            extra = np.asarray(marks[k])
            if len(extra) != len(pts):
                raise ValueError(f"mark column {k!r} has wrong length")
            new_marks[k] = np.concatenate([col, extra])
        return PointConfig._fresh(
            self.window, np.concatenate([self.points, pts]), new_marks
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
    """Intensity plus window: everything needed to draw realizations."""

    intensity: IntensityModel
    window: Window

    @property
    def mass(self) -> float:
        return self.intensity.total_mass(self.window)

    def sample(self, rng: np.random.Generator) -> "PointConfig":
        return sample_poisson(self.intensity, self.window, rng)

    def sample_locations(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.intensity.sample_locations(rng, self.window, n)

    def scaled(self, factor: float) -> "ProcessSpec":
        if isinstance(self.intensity, HomogeneousIntensity):
            new = replace(self.intensity, gamma=self.intensity.gamma * factor)
        else:
            new = replace(
                self.intensity,
                masses=tuple(m * factor for m in self.intensity.masses),
            )
        return ProcessSpec(new, self.window)


def sample_poisson(
    intensity: IntensityModel, window: Window, rng: np.random.Generator
) -> PointConfig:
    """Draw one realization of the Poisson process."""
    return _draw(intensity, window, intensity.total_mass(window), rng)


def _draw(
    intensity: IntensityModel, window: Window, mass: float, rng: np.random.Generator
) -> PointConfig:
    """Poisson(mass) points of ``intensity`` on ``window``: the count, then
    the locations, then the marks."""
    if not math.isfinite(mass):
        raise ValueError("intensity mass over the window is not finite")
    n = int(rng.poisson(mass))
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
    if set(a.marks) != set(b.marks):
        raise ValueError("mark columns must match")
    return PointConfig(
        a.window,
        np.concatenate([a.points, b.points]),
        {k: np.concatenate([a.marks[k], b.marks[k]]) for k in a.marks},
    )


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
        return {
            "name": self.name,
            "lhs": self.lhs,
            "lhs_se": self.lhs_se,
            "rhs": self.rhs,
            "rhs_se": self.rhs_se,
            "samples": self.samples,
            "passed": bool(self.passed),
            **{
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.extras.items()
            },
        }


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
    intensity: IntensityModel,
    window: Window,
    samples: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Estimate both sides of the univariate Mecke identity.

    Left side: E[sum over points x of eta of f(x, eta)].  Right side:
    integral over x of E[f(x, eta + delta_x)] lambda(dx), estimated with x
    drawn from the normalized intensity and scaled by the total mass.
    """
    mass = intensity.total_mass(window)
    lhs_vals = np.empty(samples)
    rhs_vals = np.empty(samples)
    for i in range(samples):
        eta = sample_poisson(intensity, window, rng)
        total = 0.0
        for j in range(eta.size):
            total += f(eta.points[j], eta)
        lhs_vals[i] = total

        x = intensity.sample_locations(rng, window, 1)
        eta2 = sample_poisson(intensity, window, rng)
        marks = (
            intensity.marks.sample(rng, 1) if intensity.marks is not None else None
        )
        rhs_vals[i] = mass * f(x[0], eta2.add_points(x, marks))
        if abs(lhs_vals[i]) > _OVERFLOW_GUARD or abs(rhs_vals[i]) > _OVERFLOW_GUARD:
            raise OverflowError("functional looks unbounded; Mecke check aborted")
    lhs, lhs_se = _mean_se(lhs_vals)
    rhs, rhs_se = _mean_se(rhs_vals)
    return AuditReport(
        "mecke", lhs, lhs_se, rhs, rhs_se, samples,
        passed=_at_most(abs(lhs - rhs), 0.0, lhs_se + rhs_se),
    )


# ---------------------------------------------------------------------------
# Flat CSV serialization (one point per row)


def config_to_csv(config: PointConfig) -> str:
    out = io.StringIO()
    mark_names = sorted(config.marks)
    if config.is_discrete:
        coord_names = ["cell"]
        coords = config.points.reshape(-1, 1)
    else:
        coord_names = [f"x{i}" for i in range(config.window.dim)]
        coords = config.points
    out.write(",".join(coord_names + mark_names) + "\n")
    for i in range(config.size):
        row = [_fmt(v) for v in np.atleast_1d(coords[i])]
        row += [_fmt(config.marks[k][i]) for k in mark_names]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _fmt(v) -> str:
    if float(v).is_integer() and abs(float(v)) < 1e15:
        return str(int(v))
    return format(float(v), ".17g")


def config_from_csv(text: str, window: Window) -> PointConfig:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    data = {
        name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)
    }
    if isinstance(window, DiscreteWindow):
        pts = data.pop("cell").astype(np.int64)
    else:
        pts = np.column_stack([data.pop(f"x{i}") for i in range(window.dim)])
        if pts.size == 0:
            pts = pts.reshape(0, window.dim)
    if "color" in data:
        data["color"] = data["color"].astype(np.uint8)
    return PointConfig(window, pts, data)
