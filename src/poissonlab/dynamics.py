"""Ornstein-Uhlenbeck resampling and the stationary free birth-death path.

``resample`` realizes the one-shot noise operator: survivors are kept with
probability exp(-t) and an independent Poisson((1-exp(-t)) lambda) layer is
added.  ``simulate_path`` realizes the same semigroup as an event-driven
Markov path: unit-rate exponential lifetimes, births at the total intensity
mass, stationary start.  A path is one configuration of every point that
lives on it plus a birth and a death time per point, so the state at t is
the mask birth <= t < death and the event log is read off the two arrays.
Functional evaluation along a path happens only at event times; there is no
time discretization anywhere.

``_ou_values`` draws the paired values (f(eta), f(eta^t)) once for both
covariance routes: ``covariance_curve`` here and the Mehler chaos-weight
fit in ``chaos``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .process import PointConfig, ProcessSpec, _cov_se, _csv, _draw, _points, thin

__all__ = [
    "resample",
    "BirthDeathPath",
    "simulate_path",
    "CovCurve",
    "covariance_curve",
    "exceptional_times",
    "mehler_noise_bound",
]


def resample(
    config: PointConfig,
    t: float,
    process: ProcessSpec,
    rng: np.random.Generator,
) -> PointConfig:
    """One Ornstein-Uhlenbeck step of size t.

    The draws are the thinning mask of ``thin(config, e^-t, rng)``, then
    the newcomers' count, of mean ``intensity.total_mass(window, 1 - e^-t)``,
    then their locations (normalised from the unscaled intensity) and marks;
    the newcomers are joined after the survivors.  ``config`` is taken to
    lie in ``process.window``.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return config
    keep = math.exp(-t)
    survivors = thin(config, keep, rng)
    intensity, window = process.intensity, process.window
    newcomers = _draw(intensity, window, intensity.total_mass(window, 1.0 - keep), rng)
    return PointConfig.join((survivors, newcomers))


# ---------------------------------------------------------------------------
# Birth-death paths


@dataclass
class BirthDeathPath:
    """The free birth-death process on [0, horizon] as point lifetimes.

    Point i of ``config`` is alive on [birth[i], death[i]).  Points alive
    at time zero come first and are born at -inf; a death past the horizon
    is stored as +inf.  ``events`` lists the births and deaths inside
    [0, horizon] in time order as (time, kind, point_id), kind +1 for a
    birth and -1 for a death.
    """

    process: ProcessSpec
    horizon: float
    config: PointConfig
    birth: np.ndarray
    death: np.ndarray

    def initial(self) -> PointConfig:
        return self.config.take(self.birth == -np.inf)

    def alive_at(self, t: float) -> PointConfig:
        return self.config.take((self.birth <= t) & (t < self.death))

    @property
    def events(self) -> list[tuple[float, int, int]]:
        # a point's birth, then its death, in point order; a stable sort on
        # time keeps that order among equal times
        times = np.column_stack([self.birth, self.death]).ravel()
        kinds = np.tile([1, -1], len(self.birth))
        ids = np.arange(len(self.birth)).repeat(2)
        on = np.isfinite(times)
        times, kinds, ids = times[on], kinds[on], ids[on]
        order = np.argsort(times, kind="stable")
        return list(zip(times[order].tolist(), kinds[order].tolist(),
                        ids[order].tolist()))

    def iter_states(self):
        """Yield (event_time, config_after_event); starts with (0, initial)."""
        alive = self.birth == -np.inf
        yield 0.0, self.config.take(alive)
        for time, kind, pid in self.events:
            alive[pid] = kind > 0
            yield time, self.config.take(alive)

    def to_csv(self) -> str:
        pts, marks = self.config.points, self.config.marks
        dim = 1 if pts.ndim == 1 else pts.shape[1]
        mark_names = sorted(marks)
        cols = ["time", "kind", "point_id", *(f"x{i}" for i in range(dim)), *mark_names]
        rows = (
            [time, "birth" if kind > 0 else "death", pid, *np.atleast_1d(pts[pid]),
             *(marks[k][pid] for k in mark_names)]
            for time, kind, pid in self.events
        )
        return _csv(cols, rows)


def simulate_path(
    process: ProcessSpec, horizon: float, rng: np.random.Generator
) -> BirthDeathPath:
    """Stationary free birth-death path: Poisson(lambda) start, unit-rate
    exponential lifetimes, births at rate lambda(X) with fresh marks.

    The draws come in this order: the initial configuration, the number of
    births, their sorted times, locations and marks, the initial points'
    lifetimes, then the newborns' lifetimes."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    mass = process.mass
    if not np.isfinite(mass):
        raise ValueError("path simulation needs finite intensity mass")

    initial = process.sample(rng)
    n_births = rng.poisson(mass * horizon)
    birth_times = np.sort(rng.uniform(0.0, horizon, size=n_births))
    born = _points(process.intensity, process.window, n_births, rng)
    birth = np.concatenate([np.full(initial.size, -np.inf), birth_times])
    death = np.concatenate([rng.exponential(1.0, size=initial.size),
                            birth_times + rng.exponential(1.0, size=n_births)])
    death[death > horizon] = np.inf
    return BirthDeathPath(process, horizon, PointConfig.join((initial, born)),
                          birth, death)


# ---------------------------------------------------------------------------
# Covariance curves


def _ou_values(f, process: ProcessSpec, times, samples: int, rng) -> tuple:
    """f on ``samples`` configurations eta_i (``base``) and on one
    ``resample`` of each eta_i per time (row j of ``vals`` for times[j]).

    Every eta_i is drawn first, then each is resampled at times[0], then at
    times[1], and so on.
    """
    base = np.empty(samples)
    vals = np.empty((len(times), samples))
    configs = []
    for i in range(samples):
        eta = process.sample(rng)
        configs.append(eta)
        base[i] = f(eta)
    for j, t in enumerate(times):
        for i in range(samples):
            vals[j, i] = f(resample(configs[i], t, process, rng))
    return base, vals


@dataclass
class CovCurve:
    times: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    samples: int


def covariance_curve(
    f: Callable[[PointConfig], float],
    process: ProcessSpec,
    times: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> CovCurve:
    """Paired estimates of Cov(f(eta), f(eta^t)) for each t."""
    times = np.asarray(sorted(times), dtype=float)
    base, vals = _ou_values(f, process, times, samples, rng)
    cov = np.empty(len(times))
    ses = np.empty(len(times))
    for j, v in enumerate(vals):
        cov[j], ses[j] = _cov_se(base, v)
    return CovCurve(times, cov, ses, samples)


def mehler_noise_bound(c_bound: float, delta: float, t: float) -> float:
    """Revealment bound on Cov(f, f^t): C * delta * e^-t / (1-e^-t)^2."""
    if t <= 0:
        return math.inf
    q = math.exp(-t)
    return c_bound * delta * q / (1.0 - q) ** 2


def exceptional_times(
    path: BirthDeathPath, f: Callable[[PointConfig], float]
) -> list[float]:
    """Times where f flips along the path; exact w.r.t. the event log."""
    out: list[float] = []
    prev = None
    for time, config in path.iter_states():
        val = f(config)
        if prev is not None and val != prev:
            out.append(time)
        prev = val
    return out
