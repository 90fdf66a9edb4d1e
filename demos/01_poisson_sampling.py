"""Sampling marked Poisson processes and checking the Mecke identity.

Walks through the basic objects: windows, intensities, configurations,
restriction/superposition/thinning, and the one-point Mecke equation that
everything downstream leans on.
"""

import numpy as np

from poissonlab.process import (
    BoxWindow,
    CellIntensity,
    DiscreteWindow,
    HomogeneousIntensity,
    ProcessSpec,
    RadiusMarks,
    UniformRadius,
    config_to_csv,
    mecke_check,
    restrict,
    thin,
)
from poissonlab.rng import stream

# A rate-2 process on the unit square.
window = BoxWindow((0.0, 0.0), (1.0, 1.0))
spec = ProcessSpec(HomogeneousIntensity(2.0), window)

counts = [spec.sample(stream(42, i)).size for i in range(20_000)]
print(f"mean count {np.mean(counts):.3f}  (expect 2.0)")

# Marked points: disks with uniform radii.
marked = ProcessSpec(
    HomogeneousIntensity(1.5, RadiusMarks(UniformRadius(0.05, 0.2))), window
)
cfg = marked.sample(stream(42, 999))
print(f"marked sample: {cfg.size} grains; first CSV rows:")
print("\n".join(config_to_csv(cfg).splitlines()[:4]))

# Restriction keeps points in a region; thinning keeps each point with a
# fixed probability (and stays Poisson).
left = restrict(cfg, lambda p: p[:, 0] < 0.5)
print(f"restricted to the left half: {left.size} of {cfg.size}")
kept = thin(cfg, 0.5, stream(43))
print(f"thinned at 1/2: {kept.size}")

# The Mecke identity: summing f(x, eta) over the points of eta equals the
# intensity integral of f(x, eta + delta_x).
report = mecke_check(
    lambda x, c: float(c.size == 1),
    ProcessSpec(CellIntensity((1.0,)), DiscreteWindow(1)),
    samples=20_000,
    rng=stream(44),
)
print(
    f"Mecke lhs {report.lhs:.4f} ~ rhs {report.rhs:.4f} "
    f"(closed form e^-1 = {np.exp(-1):.4f}); passed={report.passed}"
)
