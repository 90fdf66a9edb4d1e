"""Stopping sets in action: the grown-ball construction, entry times, the
defining axiom, revealment, and the Markov property.

A stopping set only depends on the configuration inside itself: replace
everything outside by an arbitrary configuration and the set (and any
functional it determines) cannot change.
"""

import math

import numpy as np

from poissonlab.process import BoxWindow, HomogeneousIntensity, PointConfig, ProcessSpec
from poissonlab.rng import stream
from poissonlab.stopping import (
    BrokenNearestPointOracle,
    ball_growth_ctdt,
    entry_time,
    expected_revealed_points,
    markov_property_check,
    nonattainable_fixture,
    probe_grid,
    revealment,
    verify_stopping_axiom,
)

window = BoxWindow((-1.0, -1.0), (1.0, 1.0))
spec = ProcessSpec(HomogeneousIntensity(1.0), window)
r_w = 1.0 / math.sqrt(math.pi)  # disk of area 1
region = lambda p: np.linalg.norm(np.atleast_2d(p), axis=1) <= r_w

# Grown ball: Z_t = B(0, tau ^ t) where tau is the first hit of the disk.
ctdt = ball_growth_ctdt(region, (0.0, 0.0))
empty = PointConfig.empty(window)
t = entry_time(ctdt, np.array([0.4, 0.0]), empty, resolution=1e-6, t_max=2.0)
print(f"entry time of x at distance 0.4 under an empty configuration: {t:.6f}")

# The axiom holds for the terminal set, and fails for a deliberately broken
# oracle (the OPEN ball to the nearest point, which excludes its witness).
ok = verify_stopping_axiom(ctdt.terminal(), spec, trials=2000, probes=100,
                           rng=stream(1))
bad = verify_stopping_axiom(BrokenNearestPointOracle(), spec, trials=200,
                            probes=100, rng=stream(2))
print(f"ball-growth axiom: passed={ok.passed}; broken oracle failures:"
      f" {len(bad.failures)}")

# Revealment: the grid maximum of P(x in Z(eta)).
grid = probe_grid(window, 0.1)
rev = revealment(ctdt.terminal(), spec, grid, samples=2000, rng=stream(3),
                 grid_spacing=0.1)
print(f"revealment delta = {rev.delta:.3f} +- {rev.delta_se:.3f}")

# Expected revealed points: E[eta(Z)] = E[lambda(Z)].
res = expected_revealed_points(ctdt.terminal(), spec, 2000, stream(4), grid)
print(f"E[eta(Z)] = {res['e_eta']:.3f} vs E[lambda(Z)] = {res['e_lam']:.3f}")

# Markov property: outside the stopping set, the process can be resampled.
fns = [("count", lambda c: float(c.size)),
       ("count_disk", lambda c: float(c.count_in(region)))]
ks = markov_property_check(ctdt.terminal(), spec, fns, 2000, stream(5))
print(f"Markov KS p-values: {[round(p, 3) for p in ks.p_values]}")

# The 3-cell fixture that no continuous decision tree attains.
fx = nonattainable_fixture((0.5, 0.3, 0.2))
print("fixture Z for occupancy (1,0,0):", fx.cells_mask(np.array([1, 0, 0])))
