"""The three percolation models at desk scale.

Boolean disks (exact connectivity from csgraph connected components),
confetti coloring (raster, self-dual at p = 1/2), and the planar model
with Pareto radii where big grains are sampled exactly and then truncated
with a computable error bound.
"""

import numpy as np

from poissonlab.percolation import (
    BooleanModel,
    ConfettiModel,
    FixedRadius,
    GrainSpec,
    ParetoRadius,
    confetti_duality_counts,
    crossing_probability,
    estimate_critical,
    one_arm_decay_fit,
    threshold_scan,
    truncation_flips,
)
from poissonlab.process import BoxWindow

disk = GrainSpec("ball", FixedRadius(1.0))

# Threshold scan for the k=1 Boolean model on a 10x10 window.
scan = threshold_scan(lambda g: BooleanModel(g, disk, k=1),
                      np.linspace(0.2, 0.6, 9), n=10.0, samples=300, seed=21)
for g, p, s in zip(scan.params, scan.estimates, scan.ses):
    print(f"gamma={g:.2f}: P(cross) = {p:.2f} +- {s:.2f}")

# Bisection for the crossing-probability-1/2 intensity.
rect = BoxWindow((0.0, 0.0), (12.0, 12.0))
est, ci = estimate_critical(
    lambda g, m, r: crossing_probability(
        BooleanModel(g, disk, k=1), rect, m, (22, r)
    ),
    0.2, 0.6, tolerance=0.02, base_samples=150,
)
print(f"estimated critical intensity: {est:.3f} +- {ci:.3f}")

# Subcritical one-arm decay: log theta_s is linear in s.
fit = one_arm_decay_fit(BooleanModel(0.5 * est, disk, k=1),
                        np.arange(4, 13, 2), samples=6000, path=(23,))
print(f"subcritical decay: slope {fit['slope']:.3f}, R^2 {fit['r2']:.3f}")

# Confetti at p = 1/2: crossing probability 1/2 and an exact duality XOR.
confetti = ConfettiModel(0.5, disk, disk)
crect = BoxWindow((0.0, 0.0), (8.0, 8.0))
hits, violations = confetti_duality_counts(confetti, crect, 0.1, 300, (24,))
print(f"confetti: P(cross at 1/2) ~ {hits / 300:.3f}; "
      f"duality XOR {300 - violations}/300")

# Pareto radii: truncate at n^(1-eps) and compare against the analytic bound.
heavy = BooleanModel(0.4, GrainSpec("ball", ParetoRadius(0.5, 3.5)), k=1)
flips, bound = truncation_flips(heavy, 32, 0.2, 400, (25,))
print(f"truncation: flip rate {flips / 400:.4f} <= analytic bound {bound:.4f}")
