"""poissonlab: a simulation and verification lab for variance inequalities
of Poisson functionals (Poincare, OSSS, Schramm-Steif) and for continuum
percolation models (k-coverage Boolean, confetti, heavy-tailed radii).

Everything checkable at desk scale is checked: closed forms against Monte
Carlo, exact enumeration against generic estimators, and every inequality
as a statistical audit with explicit standard errors.
"""

__version__ = "0.1.0"

from . import chaos, dynamics, percolation, process, rng, stopping  # noqa: F401
from .process import (  # noqa: F401
    BoxWindow,
    DiscreteWindow,
    HomogeneousIntensity,
    CellIntensity,
    PointConfig,
    ProcessSpec,
    restrict,
    superpose,
    thin,
)
