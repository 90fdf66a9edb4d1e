"""Ornstein-Uhlenbeck resampling and the stationary free birth-death path.

``resample`` realizes the one-shot noise operator: survivors are kept with
probability exp(-t) and an independent Poisson((1-exp(-t)) lambda) layer is
added.  ``simulate_path`` realizes the same semigroup as an event-driven
Markov path: unit-rate exponential lifetimes, births at the total intensity
mass, stationary start.  Functional evaluation along a path happens only at
event times; there is no time discretization anywhere.

``_ou_values`` draws the paired values (f(eta), f(eta^t)) once for both
covariance routes: ``covariance_curve`` here and the Mehler chaos-weight
fit in ``chaos``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .process import (
    HomogeneousIntensity,
    PointConfig,
    ProcessSpec,
    _at_most,
    _cov_se,
    _draw,
    thin,
)

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

    The draws are those of ``superpose(thin(config, e^-t, rng),
    process.scaled(1 - e^-t).sample(rng))``: the thinning mask, then the
    newcomers' count, locations and marks.  On a homogeneous intensity the
    scaled process is not built; its mass is the same product in the same
    order.  ``config`` is taken to lie in ``process.window``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return config
    keep = math.exp(-t)
    survivors = thin(config, keep, rng)
    intensity, window = process.intensity, process.window
    if isinstance(intensity, HomogeneousIntensity):
        mass = intensity.total_mass(window, 1.0 - keep)
        newcomers = _draw(intensity, window, mass, rng)
    else:
        newcomers = process.scaled(1.0 - keep).sample(rng)
    if survivors.marks.keys() != newcomers.marks.keys():
        raise ValueError("mark columns must match")
    return PointConfig._fresh(
        survivors.window,
        np.concatenate([survivors.points, newcomers.points]),
        {k: np.concatenate([v, newcomers.marks[k]]) for k, v in survivors.marks.items()},
    )


# ---------------------------------------------------------------------------
# Birth-death paths


@dataclass
class BirthDeathPath:
    """Event log of the free birth-death process on [0, horizon].

    ``events`` is time-ordered; each entry is (time, kind, point_id) with
    kind +1 for a birth and -1 for a death.  Point data lives in
    ``locations``/``marks`` indexed by point_id; ids below ``n_initial``
    are alive at time zero.
    """

    process: ProcessSpec
    horizon: float
    n_initial: int
    locations: np.ndarray
    marks: dict[str, np.ndarray]
    events: list[tuple[float, int, int]]

    def initial(self) -> PointConfig:
        return self._config(np.arange(self.n_initial))

    def _config(self, ids: np.ndarray) -> PointConfig:
        ids = np.asarray(ids, dtype=int)
        return PointConfig(
            self.process.window,
            self.locations[ids],
            {k: v[ids] for k, v in self.marks.items()},
        )

    def alive_at(self, t: float) -> PointConfig:
        alive = set(range(self.n_initial))
        for time, kind, pid in self.events:
            if time > t:
                break
            if kind > 0:
                alive.add(pid)
            else:
                alive.discard(pid)
        return self._config(sorted(alive))

    def iter_states(self):
        """Yield (event_time, config_after_event); starts with (0, initial)."""
        alive = set(range(self.n_initial))
        yield 0.0, self._config(sorted(alive))
        for time, kind, pid in self.events:
            if kind > 0:
                alive.add(pid)
            else:
                alive.discard(pid)
            yield time, self._config(sorted(alive))

    def to_csv(self) -> str:
        dim = 1 if self.locations.ndim == 1 else self.locations.shape[1]
        mark_names = sorted(self.marks)
        cols = ["time", "kind", "point_id"]
        cols += [f"x{i}" for i in range(dim)]
        cols += mark_names
        lines = [",".join(cols)]
        for time, kind, pid in self.events:
            loc = np.atleast_1d(self.locations[pid])
            row = [f"{time:.17g}", "birth" if kind > 0 else "death", str(pid)]
            row += [f"{v:.17g}" for v in loc]
            row += [f"{float(self.marks[k][pid]):.17g}" for k in mark_names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def simulate_path(
    process: ProcessSpec, horizon: float, rng: np.random.Generator
) -> BirthDeathPath:
    """Stationary free birth-death path: Poisson(lambda) start, unit-rate
    exponential lifetimes, births at rate lambda(X) with fresh marks."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    mass = process.mass
    if not np.isfinite(mass):
        raise ValueError("path simulation needs finite intensity mass")

    initial = process.sample(rng)
    n0 = initial.size
    n_births = rng.poisson(mass * horizon)
    birth_times = np.sort(rng.uniform(0.0, horizon, size=n_births))
    born = process.sample_locations(rng, n_births)
    born_marks = (
        process.intensity.marks.sample(rng, n_births)
        if process.intensity.marks is not None
        else {}
    )

    locations = np.concatenate([initial.points, born]) if n0 or n_births else (
        initial.points
    )
    marks = {
        k: np.concatenate([initial.marks[k], born_marks[k]])
        for k in initial.marks
    }

    events: list[tuple[float, int, int]] = []
    death_initial = rng.exponential(1.0, size=n0)
    for pid in range(n0):
        if death_initial[pid] <= horizon:
            events.append((float(death_initial[pid]), -1, pid))
    lifetimes = rng.exponential(1.0, size=n_births)
    for j in range(n_births):
        pid = n0 + j
        events.append((float(birth_times[j]), +1, pid))
        d = float(birth_times[j] + lifetimes[j])
        if d <= horizon:
            events.append((d, -1, pid))
    events.sort(key=lambda e: e[0])
    return BirthDeathPath(
        process=process,
        horizon=horizon,
        n_initial=n0,
        locations=locations,
        marks=marks,
        events=events,
    )


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

    def nonincreasing_within(self) -> bool:
        jump_se = np.hypot(self.se[1:], self.se[:-1])
        return bool(np.all(_at_most(np.diff(self.cov), 0.0, jump_se)))

    def nonnegative_within(self) -> bool:
        return bool(np.all(_at_most(-self.cov, 0.0, self.se)))


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
