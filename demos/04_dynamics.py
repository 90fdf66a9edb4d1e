"""Ornstein-Uhlenbeck resampling, birth-death paths, exceptional times.

The resampled process eta^t keeps each point with probability e^-t and
adds a fresh Poisson layer; realized as a path, it is the stationary free
birth-death process.  A Boolean functional flips at exceptional times; for
critical crossings these flips proliferate as the window grows.
"""

import numpy as np

from poissonlab.dynamics import (
    covariance_curve,
    exceptional_times,
    resample,
    simulate_path,
)
from poissonlab.fixtures import crossing_setup
from poissonlab.process import BoxWindow, HomogeneousIntensity, ProcessSpec
from poissonlab.rng import stream

window = BoxWindow((0.0, 0.0), (1.0, 1.0))
spec = ProcessSpec(HomogeneousIntensity(3.0), window)

# One-shot resampling and the covariance curve of a linear functional:
# Cov(N, N^t) = 3 e^-t (pure first chaos).
curve = covariance_curve(lambda c: float(c.size), spec, [0.1, 0.5, 1.0, 2.0],
                         samples=6000, rng=stream(11))
for t, c in zip(curve.times, curve.cov):
    print(f"Cov(N, N^{t:<3}) = {c:.3f}   (3 e^-t = {3 * np.exp(-t):.3f})")

# Event-driven path: stationary start, unit-rate deaths, mass-rate births.
path = simulate_path(spec, horizon=2.0, rng=stream(12))
print(f"path: {path.initial().size} initial points, {len(path.events)} events")
check = resample(path.initial(), 0.5, spec, stream(13))
print(f"alive at 0.5: {path.alive_at(0.5).size}; one-shot resample: {check.size}")

# Exceptional times of a critical crossing functional grow with the window.
gamma = 0.36
for n in (5, 8, 11):
    _, _, process, f = crossing_setup(n, gamma)
    counts = [
        len(exceptional_times(simulate_path(process, 1.0, stream(14, n, s)), f))
        for s in range(12)
    ]
    print(f"n={n:2d}: median exceptional times on [0,1] = {np.median(counts):.0f}")
