"""Chaos weights of square-integrable Poisson functionals and numerical
audits of the variance inequalities that control them.

Two routes to the weights W_k = E[I_k(u_k)^2]:

* exact enumeration on a small discrete space, through the kernel formula
  u_k = E[D^k f] / k! and W_k = sum over cell multisets of
  prod(lambda_c^m_c / m_c!) * E[D^k f]^2;
* a covariance-curve fit: Cov(f(eta), f(eta^t)) = sum_k exp(-k t) W_k,
  inverted by nonnegative least squares over a time grid.  The paired
  values come from ``dynamics._ou_values``, the sampler behind
  ``dynamics.covariance_curve`` too, so the two routes see the same draws.

The audit functions estimate both sides of an inequality with standard
errors and report a verdict by the pass rule of ``process._at_most``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import nnls
from scipy.stats import poisson as poisson_dist

from .dynamics import _ou_values
from .process import (
    AuditReport,
    DiscreteWindow,
    PointConfig,
    ProcessSpec,
    _at_most,
    _bernoulli_se,
    _cov_se,
    _mean_se,
    _need_two,
    _var_se,
)
from .stopping import StoppingSetOracle, restrict_to

__all__ = [
    "ChaosSpectrum",
    "DiscreteOracleSpace",
    "chaos_weights_exact",
    "chaos_weights_mehler",
    "AuditReport",
    "poincare_audit",
    "osss_audit",
    "schramm_steif_audit",
    "cond_moment_audit",
    "sqrt_osss_audit",
    "binary_l1_distance",
    "pathwise_multiple_integral",
]


# ---------------------------------------------------------------------------
# Shared helpers


def _as_points(config: PointConfig, x) -> np.ndarray:
    if config.is_discrete:
        return np.atleast_1d(np.asarray(x, dtype=np.int64))
    return np.atleast_2d(np.asarray(x, dtype=float))


def binary_l1_distance(p_hat: float, n: int) -> tuple[float, float]:
    """E|f - f'| = 2 p (1-p) for {0,1}-valued f, from the estimated p."""
    se = abs(2.0 - 4.0 * p_hat) * _bernoulli_se(p_hat, n)
    return 2.0 * p_hat * (1.0 - p_hat), se


# ---------------------------------------------------------------------------
# Discrete enumeration space

_MAX_OUTCOMES = 10**7


@dataclass
class DiscreteOracleSpace:
    """Finite cell space with truncated-Poisson enumeration.

    Counts are capped per cell so the total neglected probability mass is
    below ``tail_bound``; the truncation mass is carried through every
    exact result.  Spaces of more than ``_MAX_OUTCOMES`` count vectors are
    refused.
    """

    masses: tuple[float, ...]
    tail_bound: float = 1e-12

    def __post_init__(self):
        m = len(self.masses)
        caps = []
        for lam in self.masses:
            n = int(poisson_dist.isf(self.tail_bound / max(m, 1), lam)) + 2
            caps.append(max(n, 1))
        self.caps = tuple(caps)
        total = math.prod(c + 1 for c in self.caps)
        if total > _MAX_OUTCOMES:
            raise ValueError(f"enumeration would need {total} outcomes")
        grids = np.meshgrid(*[np.arange(c + 1) for c in self.caps], indexing="ij")
        self.grid = np.column_stack([g.ravel() for g in grids])
        self._cell_pmfs = [
            poisson_dist.pmf(np.arange(c + 1), lam)
            for c, lam in zip(self.caps, self.masses)
        ]
        w = np.ones(len(self.grid))
        for j in range(m):
            w *= self._cell_pmfs[j][self.grid[:, j]]
        self.weights = w
        self.truncation_mass = float(1.0 - w.sum())

    @property
    def num_cells(self) -> int:
        return len(self.masses)

    @property
    def window(self) -> DiscreteWindow:
        return DiscreteWindow(self.num_cells)

    def expectation(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def evaluate(self, f_counts: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Vectorized functional values over the full count grid."""
        return np.asarray(f_counts(self.grid), dtype=float)

    def shifted_means(
        self, f_counts: Callable[[np.ndarray], np.ndarray], max_shift: int
    ) -> np.ndarray:
        """Table G[v] = E[f(eta + v)] for shift vectors v with entries
        0..max_shift (axis-wise correlation against the Poisson weights)."""
        m = self.num_cells
        ext_axes = [np.arange(c + 1 + max_shift) for c in self.caps]
        ext_grids = np.meshgrid(*ext_axes, indexing="ij")
        ext_counts = np.column_stack([g.ravel() for g in ext_grids])
        f_ext = np.asarray(f_counts(ext_counts), dtype=float).reshape(
            [len(a) for a in ext_axes]
        )
        w_outer = self._cell_pmfs[0]
        for j in range(1, m):
            w_outer = np.multiply.outer(w_outer, self._cell_pmfs[j])
        shape = tuple(max_shift + 1 for _ in range(m))
        table = np.empty(shape)
        base = tuple(c + 1 for c in self.caps)
        for v in itertools.product(range(max_shift + 1), repeat=m):
            sl = tuple(slice(v[j], v[j] + base[j]) for j in range(m))
            table[v] = float(np.sum(w_outer * f_ext[sl]))
        return table


# ---------------------------------------------------------------------------
# Chaos spectra


@dataclass
class ChaosSpectrum:
    mean: float
    weights: np.ndarray  # W_1..W_kmax
    ses: Optional[np.ndarray]
    exact: bool
    truncation_error: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def k_max(self) -> int:
        return len(self.weights)

    def second_moment_lhs(self) -> float:
        return self.mean**2 + float(np.sum(self.weights))

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "weights": self.weights.tolist(),
            "ses": None if self.ses is None else self.ses.tolist(),
            "exact": self.exact,
            "truncation_error": self.truncation_error,
            **{
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.extras.items()
            },
        }


def chaos_weights_exact(
    f_counts: Callable[[np.ndarray], np.ndarray],
    space: DiscreteOracleSpace,
    k_max: int,
) -> ChaosSpectrum:
    """Exact chaos weights by enumeration.

    W_k = sum over multisets {c_1..c_k} of prod_c lambda_c^{m_c}/m_c! times
    E[D^k f]^2, with E[D^k f] assembled from the shifted-mean table by
    inclusion-exclusion.
    """
    m = space.num_cells
    masses = np.asarray(space.masses)
    table = space.shifted_means(f_counts, k_max)
    mean = float(table[(0,) * m])
    weights = np.zeros(k_max)
    binom = [[math.comb(n, j) for j in range(n + 1)] for n in range(k_max + 1)]
    for k in range(1, k_max + 1):
        total = 0.0
        for mult in _multisets(m, k):
            coef = 1.0
            for c in range(m):
                coef *= masses[c] ** mult[c] / math.factorial(mult[c])
            ed = 0.0
            for j in itertools.product(*[range(mc + 1) for mc in mult]):
                s = sum(j)
                sign = (-1) ** (k - s)
                comb = 1.0
                for c in range(m):
                    comb *= binom[mult[c]][j[c]]
                ed += sign * comb * table[j]
            total += coef * ed * ed
        weights[k - 1] = total
    ef2 = space.expectation(space.evaluate(f_counts) ** 2)
    return ChaosSpectrum(
        mean=mean,
        weights=weights,
        ses=None,
        exact=True,
        truncation_error=space.truncation_mass,
        extras={"ef2": ef2},
    )


def _multisets(m: int, k: int):
    """Multiplicity vectors (m cells) summing to k."""
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _multisets(m - 1, k - first):
            yield (first,) + rest


def _resampled_cov(base: np.ndarray, vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Unbiased covariance of ``base[idx]`` with every row of ``vals[:, idx]``.

    ``vals.take(idx, axis=1)`` of a C-ordered ``vals`` is C-ordered, so the
    2-D ``mean(axis=1)`` reduces each row along the contiguous axis with the
    same pairwise summation as a 1-D ``np.mean`` of that row, and the result
    equals the per-row formula bit for bit.  (Fancy indexing ``vals[:, idx]``
    gives an F-ordered array, whose rows are summed in another order.)
    """
    m = len(idx)
    b = base[idx]
    b = b - b.mean()
    rows = vals.take(idx, axis=1)
    return ((rows - rows.mean(axis=1)[:, None]) * b).mean(axis=1) * m / (m - 1)


_BOOTSTRAP = 80


def chaos_weights_mehler(
    f: Callable[[PointConfig], float],
    process: ProcessSpec,
    times: Sequence[float],
    samples: int,
    rng: np.random.Generator,
    k_max: int = 6,
) -> ChaosSpectrum:
    """Chaos weights from the covariance curve via nonnegative least squares,
    with standard errors from ``_BOOTSTRAP`` resamples of the pairs.

    Needs at least k_max distinct times and two samples; the default grid
    choice elsewhere is geometric in (0, 3].
    """
    times = np.asarray(sorted(set(float(t) for t in times)))
    if len(times) < k_max:
        raise ValueError("need at least k_max distinct times")
    _need_two(samples)
    base, vals = _ou_values(f, process, times, samples, rng)
    design = np.exp(-np.outer(times, np.arange(1, k_max + 1)))
    cond = float(np.linalg.cond(design))

    def fit(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cov = _resampled_cov(base, vals, idx)
        w, _ = nnls(design, cov)
        return w, cov

    all_idx = np.arange(samples)
    w_hat, cov_hat = fit(all_idx)
    cov_se = np.array([_cov_se(base, v)[1] for v in vals])
    boots = np.empty((_BOOTSTRAP, k_max))
    for b in range(_BOOTSTRAP):
        idx = rng.integers(0, samples, size=samples)
        boots[b], _ = fit(idx)
    ses = boots.std(axis=0, ddof=1)
    resid = cov_hat - design @ w_hat
    mean, mean_se = _mean_se(base)
    return ChaosSpectrum(
        mean=mean,
        weights=w_hat,
        ses=ses,
        exact=False,
        extras={
            "times": times,
            "cov": cov_hat,
            "cov_se": cov_se,
            "residuals": resid,
            "design_condition": cond,
            "ill_conditioned": cond > 1e8,
            "mean_se": mean_se,
            "samples": samples,
        },
    )


# ---------------------------------------------------------------------------
# Audits


def _lambda_draw(process: ProcessSpec, rng) -> tuple[np.ndarray, Optional[dict]]:
    """One point x drawn from the normalized intensity, then its marks."""
    intensity = process.intensity
    x = intensity.sample_locations(rng, process.window, 1)
    marks = intensity.marks
    return x, (marks.sample(rng, 1) if marks is not None else None)


def poincare_audit(
    f: Callable[[PointConfig], float],
    process: ProcessSpec,
    samples: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Var f(eta) <= integral of E[(D_x f)^2] lambda(dx)."""
    mass = process.mass
    f_vals = np.empty(samples)
    d_vals = np.empty(samples)
    for i in range(samples):
        f_vals[i] = f(process.sample(rng))
        x, marks = _lambda_draw(process, rng)
        eta = process.sample(rng)
        d_vals[i] = mass * (f(eta.add_points(x, marks)) - f(eta)) ** 2
    var, var_se = _var_se(f_vals)
    rhs, rhs_se = _mean_se(d_vals)
    return AuditReport(
        "poincare",
        var,
        var_se,
        rhs,
        rhs_se,
        samples,
        passed=bool(_at_most(var, rhs, var_se + rhs_se)),
    )


def _check_determination(f, terminal: StoppingSetOracle, process, rng, n=200):
    for _ in range(n):
        eta = process.sample(rng)
        if f(eta) != f(restrict_to(terminal, eta)):
            raise ValueError("the decision tree does not determine f")


def osss_audit(
    f: Callable[[PointConfig], float],
    ctdt,
    process: ProcessSpec,
    samples: int,
    rng: np.random.Generator,
    binary: bool = False,
    determination_checks: int = 200,
) -> AuditReport:
    """E|f(eta) - f(eta')| <= 2 integral P(x in Z) E|D_x f| lambda(dx).

    The right side couples an independent membership sample with an
    independent add-one-cost sample at a common lambda-distributed x.
    ``binary=True`` computes the left side analytically as 2 p (1-p).
    """
    terminal = ctdt.terminal() if hasattr(ctdt, "terminal") else ctdt
    if determination_checks:
        _check_determination(f, terminal, process, rng, determination_checks)
    mass = process.mass
    rhs_vals = np.empty(samples)
    f_vals = np.empty(samples)
    pair_vals = np.empty(samples)
    for i in range(samples):
        eta1 = process.sample(rng)
        f_vals[i] = f(eta1)
        pair_vals[i] = abs(f_vals[i] - f(process.sample(rng)))
        x, marks = _lambda_draw(process, rng)
        member = bool(terminal.contains(_as_points(eta1, x), eta1)[0])
        if member:
            eta2 = process.sample(rng)
            d = abs(f(eta2.add_points(x, marks)) - f(eta2))
            rhs_vals[i] = 2.0 * mass * d
        else:
            rhs_vals[i] = 0.0
    if binary:
        p_hat = float(f_vals.mean())
        lhs, lhs_se = binary_l1_distance(p_hat, samples)
    else:
        lhs, lhs_se = _mean_se(pair_vals)
    rhs, rhs_se = _mean_se(rhs_vals)
    return AuditReport(
        "osss",
        lhs,
        lhs_se,
        rhs,
        rhs_se,
        samples,
        passed=bool(_at_most(lhs, rhs, lhs_se + rhs_se)),
        extras={"pair_lhs": _mean_se(pair_vals)[0], "binary_mode": binary},
    )


def schramm_steif_audit(
    delta: float,
    delta_se: float,
    spectrum: ChaosSpectrum,
    ef2: float,
    ef2_se: float,
    k_max: Optional[int] = None,
) -> AuditReport:
    """W_k <= k * delta * E[f^2] for each k, from precomputed ingredients.

    ``delta`` should come from a revealment estimate of a stopping set
    determining f; ``spectrum`` from either weight route.
    """
    k_max = k_max or spectrum.k_max
    rows = []
    ok = True
    for k in range(1, k_max + 1):
        w = float(spectrum.weights[k - 1])
        w_se = float(spectrum.ses[k - 1]) if spectrum.ses is not None else 0.0
        bound = k * delta * ef2
        bound_se = k * (delta_se * ef2 + delta * ef2_se)
        passed = bool(_at_most(w, bound, w_se + bound_se))
        ok &= passed
        rows.append(
            {
                "k": k,
                "weight": w,
                "weight_se": w_se,
                "bound": bound,
                "bound_se": bound_se,
                "passed": passed,
            }
        )
    worst = max(rows, key=lambda r: r["weight"] - r["bound"])
    return AuditReport(
        "schramm_steif",
        worst["weight"],
        worst["weight_se"],
        worst["bound"],
        worst["bound_se"],
        samples=spectrum.extras.get("samples", 0),
        passed=ok,
        extras={"rows": rows, "delta": delta, "delta_se": delta_se, "ef2": ef2},
    )


def sqrt_osss_audit(
    f: Callable[[PointConfig], float],
    delta: float,
    delta_se: float,
    process: ProcessSpec,
    samples: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Var f <= 3 sqrt(delta) * integral E[(D_x f)^2] lambda(dx).

    Both the variance and the energy integral are the Poincare audit's, from
    the same draws."""
    poin = poincare_audit(f, process, samples, rng)
    var, var_se, energy, energy_se = poin.lhs, poin.lhs_se, poin.rhs, poin.rhs_se
    rhs = 3.0 * math.sqrt(delta) * energy
    d_term = 0.0 if delta <= 0 else 3.0 * energy * delta_se / (2.0 * math.sqrt(delta))
    rhs_se = 3.0 * math.sqrt(delta) * energy_se + d_term
    return AuditReport(
        "sqrt_osss",
        var,
        var_se,
        rhs,
        rhs_se,
        samples,
        passed=bool(_at_most(var, rhs, var_se + rhs_se)),
        extras={"delta": delta, "delta_se": delta_se},
    )


# ---------------------------------------------------------------------------
# Conditional second-moment bound (exact, discrete)


def pathwise_multiple_integral(
    u: np.ndarray, counts: np.ndarray, masses: np.ndarray
) -> float:
    """I_k(u) evaluated pathwise on a discrete configuration.

    Alternating binomial sum of (factorial measure) x (intensity) tensor
    contractions of the symmetric kernel u.
    """
    k = u.ndim
    m = len(masses)
    partial = [None] * (k + 1)
    partial[k] = u
    for i in range(k - 1, -1, -1):
        partial[i] = np.tensordot(partial[i + 1], masses, axes=([i], [0]))
    total = 0.0
    for i in range(k + 1):
        block = 0.0
        if i == 0:
            block = float(partial[0])
        else:
            for cells in itertools.product(range(m), repeat=i):
                ff = 1.0
                seen: dict[int, int] = {}
                for c in cells:
                    seen[c] = seen.get(c, 0) + 1
                    ff *= counts[c] - (seen[c] - 1)
                if ff == 0.0:
                    continue
                block += ff * float(partial[i][cells])
        total += (-1) ** (k - i) * math.comb(k, i) * block
    return total


def cond_moment_audit(
    u: np.ndarray,
    k: int,
    cells_mask_fn: Callable[[np.ndarray], np.ndarray],
    space: DiscreteOracleSpace,
) -> dict:
    """Exact check of E[E[I_k(u)|eta_Z]^2] <= k! int u^2 P({x} cap Z != 0).

    ``cells_mask_fn`` maps a count vector to the boolean cell mask of the
    stopping set.  Everything is enumerated; the truncation mass is the
    only inexactness and is reported.
    """
    if k != u.ndim:
        raise ValueError("kernel order does not match k")
    if k > 3:
        raise ValueError("exact audit supports k <= 3")
    u = np.asarray(u, dtype=float)
    for perm in itertools.permutations(range(k)):
        if not np.allclose(np.transpose(u, perm), u, atol=1e-12):
            raise ValueError("kernel must be symmetric")
    masses = np.asarray(space.masses)
    m = space.num_cells
    grid = space.grid
    weights = space.weights

    masks = np.zeros((len(grid), m), dtype=bool)
    for row in range(len(grid)):
        masks[row] = cells_mask_fn(grid[row])

    # conditional expectation h(mu) = E[I_k(mu_Z + eta'_{Z^c})], memoized on
    # (restricted counts, mask)
    memo: dict[tuple, float] = {}

    def h_of(row: int) -> float:
        mask = masks[row]
        mu_z = tuple(grid[row] * mask)
        key = (mu_z, tuple(mask))
        if key in memo:
            return memo[key]
        out_cells = np.flatnonzero(~mask)
        if len(out_cells) == 0:
            val = pathwise_multiple_integral(u, np.array(mu_z), masses)
        else:
            ranges = [range(space.caps[c] + 1) for c in out_cells]
            val = 0.0
            for psi in itertools.product(*ranges):
                w = 1.0
                full = np.array(mu_z, dtype=float)
                for c, n_c in zip(out_cells, psi):
                    w *= space._cell_pmfs[c][n_c]
                    full[c] += n_c
                if w == 0.0:
                    continue
                val += w * pathwise_multiple_integral(u, full, masses)
        memo[key] = val
        return val

    lhs = 0.0
    for row in range(len(grid)):
        lhs += weights[row] * h_of(row) ** 2

    # rhs: k! * sum over ordered tuples of u^2 * P(tuple touches Z) * prod(lambda)
    touch_prob: dict[frozenset, float] = {}
    for subset in range(1, 1 << m):
        cells = frozenset(c for c in range(m) if subset >> c & 1)
        hit = np.zeros(len(grid), dtype=bool)
        for c in cells:
            hit |= masks[:, c]
        touch_prob[cells] = float(np.dot(weights, hit))
    rhs = 0.0
    norm2 = 0.0
    for cells in itertools.product(range(m), repeat=k):
        lam = float(np.prod(masses[list(cells)]))
        u2 = float(u[cells]) ** 2
        rhs += u2 * touch_prob[frozenset(cells)] * lam
        norm2 += u2 * lam
    rhs *= math.factorial(k)
    full_norm = math.factorial(k) * norm2

    ei2 = space.expectation(
        np.array(
            [
                pathwise_multiple_integral(u, grid[row].astype(float), masses) ** 2
                for row in range(len(grid))
            ]
        )
    )
    return {
        "k": k,
        "lhs": lhs,
        "rhs": rhs,
        "margin": rhs - lhs,
        "isometry": full_norm,
        "second_moment": ei2,
        "truncation_mass": space.truncation_mass,
        "passed": bool(lhs <= rhs + max(1e-12, 10 * space.truncation_mass)),
    }
