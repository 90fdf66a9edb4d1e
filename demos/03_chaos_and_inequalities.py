"""Chaos weights two ways, and the variance inequalities as numeric audits.

The empty-space indicator f = 1{no points in W} has every moment in closed
form, so it is the standard bench: exact enumeration must reproduce the
closed-form weights to 1e-10, the covariance-curve regression must agree
within noise, and the Poincare/OSSS bounds bracket the exact variance.
"""

import math

import numpy as np

from poissonlab.chaos import (
    DiscreteOracleSpace,
    chaos_weights_exact,
    chaos_weights_mehler,
    osss_audit,
    poincare_audit,
)
from poissonlab.fixtures import empty_space_setup
from poissonlab.process import CellIntensity, DiscreteWindow, ProcessSpec
from poissonlab.rng import stream

# Exact route: single cell of mass 1, f = 1{count = 0}:
# W_k = e^-2 / k! exactly.
space = DiscreteOracleSpace((1.0,))
f_counts = lambda c: (np.atleast_2d(c)[:, 0] == 0).astype(float)
spec = chaos_weights_exact(f_counts, space, k_max=6)
print("exact weights     :", np.round(spec.weights, 6))
print("closed form       :",
      np.round([math.exp(-2) / math.factorial(k) for k in range(1, 7)], 6))

# Monte Carlo route: fit Cov(f(eta), f(eta^t)) = sum_k e^{-kt} W_k.
proc = ProcessSpec(CellIntensity((1.0,)), DiscreteWindow(1))
mc = chaos_weights_mehler(
    lambda cfg: 1.0 if cfg.size == 0 else 0.0,
    proc, times=[0.1, 0.3, 0.6, 1.0, 1.5, 2.2, 3.0],
    samples=8000, rng=stream(7), k_max=4,
)
print("Mehler weights    :", np.round(mc.weights, 4), "+-", np.round(mc.ses, 4))

# Audits on the planar empty-space functional (disk of area pi):
# Poincare gives pi e^-pi, the OSSS route is sharp.
_, process, f, ctdt = empty_space_setup(math.pi)
poin = poincare_audit(f, process, samples=30_000, rng=stream(8))
print(f"variance {poin.lhs:.5f} <= Poincare rhs {poin.rhs:.5f} "
      f"(exact variance {math.exp(-math.pi) * (1 - math.exp(-math.pi)):.5f})")

osss = osss_audit(f, ctdt, process, samples=30_000, rng=stream(9))
print(f"OSSS lhs {osss.lhs:.5f} ~ rhs {osss.rhs:.5f} (sharp: gap "
      f"{abs(osss.rhs - osss.lhs) / osss.lhs:.1%})")
