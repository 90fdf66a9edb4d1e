"""The acceptance suite: every desk-scale claim the package commits to.

Each criterion body returns ``(passed, details)``; the :func:`criterion`
decorator times it, wraps the pair in a :class:`CriterionResult` and
registers it in ``ALL_CRITERIA``, which the pytest wrapper and the command
line runner both call.  Seeds are pinned and tolerances are written here
and nowhere else; the three-standard-error factor of every statistical
verdict is the one of ``process._at_most``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable

import numpy as np
from scipy import stats

from . import chaos, dynamics
from .chaos import chaos_weights_exact, chaos_weights_mehler, cond_moment_audit
from .fixtures import (
    CROSSING_RADIUS,
    boolean_model,
    cond_moment_setup,
    confetti_model,
    counting_setup,
    crossing_setup,
    empty_space_setup,
    line_exploration_setup,
    line_revealment,
    sample_process,
    three_cell_setup,
)
from .percolation import (
    BooleanModel,
    GrainSpec,
    ParetoRadius,
    confetti_duality_counts,
    crossing_probability,
    estimate_critical,
    one_arm_decay_fit,
    truncation_flips,
)
from .process import BoxWindow, ProcessSpec, _at_most, _bernoulli_se, _cov_se
from .rng import stream
from .stopping import (
    ConstantRegionSet,
    SphereSeed,
    ball_growth_ctdt,
    component_exploration,
    markov_property_check,
    nonattainable_fixture,
    verify_stopping_axiom,
)

SEED = 20240831


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.1f}s)"

    def record(self) -> dict:
        """The criterion's entry in the acceptance record: name, verdict,
        canonical details and their sha256 digest; ``elapsed`` is left out.
        Canonical means JSON with sorted keys and floats by ``repr``, numpy
        values and tuples converted and every key a string.  Every entry is
        a pure function of the pinned seeds except criterion 1's
        ``runtime_under_60s``, which reads the wall clock."""
        text = json.dumps(_plain(self.details), sort_keys=True)
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "details": json.loads(text),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


ALL_CRITERIA: dict[str, Callable[[], CriterionResult]] = {}


def criterion(name: str):
    """Register a criterion body under the number that starts ``name``; the
    registered function times the body and wraps its ``(passed, details)``
    in a :class:`CriterionResult`."""

    def register(body):
        @wraps(body)
        def timed(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body(*args, **kwargs)
            return CriterionResult(name, passed, details, time.perf_counter() - t0)

        ALL_CRITERIA[name.split()[0]] = timed
        return timed

    return register


@criterion("1 empty-space sharpness")
def criterion_1_empty_space_sharpness(samples: int = 100_000):
    """Unit-disk empty-space functional: variance and the per-location OSSS
    integral both equal exp(-pi)(1 - exp(-pi)); the bound is sharp."""
    t0 = time.perf_counter()
    target = math.exp(-math.pi) * (1.0 - math.exp(-math.pi))
    window, process, region, f = empty_space_setup(math.pi)
    ctdt = ball_growth_ctdt(region, (0.0, 0.0))
    rep = chaos.osss_audit(
        f, ctdt, process, samples, stream(SEED, 1), binary=True,
        determination_checks=100,
    )
    var_hat = rep.lhs / 2.0
    var_se = rep.lhs_se / 2.0
    half_rhs = rep.rhs / 2.0
    half_rhs_se = rep.rhs_se / 2.0
    gap = abs(rep.rhs - rep.lhs)
    checks = {
        "var_matches": _at_most(abs(var_hat - target), 0.0, var_se),
        "osss_rhs_matches": _at_most(abs(half_rhs - target), 0.0, half_rhs_se),
        "sharp_within_2pct": _at_most(gap, 0.02 * rep.lhs, rep.lhs_se + rep.rhs_se),
        "runtime_under_60s": time.perf_counter() - t0 < 60.0,
    }
    return all(checks.values()), {
        "target": target,
        "var": var_hat,
        "var_se": var_se,
        "osss_half_rhs": half_rhs,
        "osss_half_rhs_se": half_rhs_se,
        "relative_gap": gap / rep.lhs,
        **checks,
    }


@criterion("2 Poincare suboptimality")
def criterion_2_poincare_suboptimal(samples: int = 60_000):
    """lambda(W) = 4: Poincare right side 4 exp(-4), exact variance
    exp(-4)(1-exp(-4)); the OSSS integral is significantly smaller."""
    window, process, region, f = empty_space_setup(4.0)
    var_target = math.exp(-4.0) * (1.0 - math.exp(-4.0))
    rhs_target = 4.0 * math.exp(-4.0)
    poin = chaos.poincare_audit(f, process, samples, stream(SEED, 2))
    ctdt = ball_growth_ctdt(region, (0.0, 0.0))
    osss = chaos.osss_audit(
        f, ctdt, process, samples, stream(SEED, 3), binary=True,
        determination_checks=100,
    )
    half_rhs = osss.rhs / 2.0
    half_rhs_se = osss.rhs_se / 2.0
    checks = {
        "poincare_rhs_matches": _at_most(abs(poin.rhs - rhs_target), 0.0, poin.rhs_se),
        "variance_matches": _at_most(abs(poin.lhs - var_target), 0.0, poin.lhs_se),
        "osss_below_poincare": not _at_most(
            poin.rhs - half_rhs, 0.0, poin.rhs_se + half_rhs_se
        ),
    }
    return all(checks.values()), {
        "poincare_rhs": poin.rhs,
        "poincare_rhs_se": poin.rhs_se,
        "rhs_target": rhs_target,
        "variance": poin.lhs,
        "variance_se": poin.lhs_se,
        "var_target": var_target,
        "osss_half_rhs": half_rhs,
        **checks,
    }


@criterion("3 chaos oracle equivalence")
def criterion_3_chaos_oracle():
    """Exact enumeration on a 3-cell space reproduces the closed-form
    weights of the empty-indicator to 1e-10 and the second-moment identity."""
    lam_w = 0.8  # cells 0 and 1
    space, f_counts = three_cell_setup((0.5, 0.3, 0.2))
    spec6 = chaos_weights_exact(f_counts, space, k_max=6)
    closed = np.array(
        [lam_w**k * math.exp(-2 * lam_w) / math.factorial(k) for k in range(1, 7)]
    )
    weight_err = float(np.max(np.abs(spec6.weights - closed)))
    spec_full = chaos_weights_exact(f_counts, space, k_max=14)
    identity_gap = abs(spec_full.second_moment_lhs() - spec_full.extras["ef2"])
    checks = {
        "weights_match_1e-10": weight_err <= 1e-10,
        "identity_1e-10": identity_gap <= 1e-10,
    }
    return all(checks.values()), {
        "weight_err": weight_err,
        "identity_gap": identity_gap,
        "truncation_mass": space.truncation_mass,
        **checks,
    }


@criterion("4 Mehler regression")
def criterion_4_mehler_regression(samples: int = 25_000):
    """Counting functional with lambda(B) = 2: pure first chaos W_1 = 2 and
    covariance curve 2 exp(-t)."""
    process, f, times = counting_setup(2.0)
    spec = chaos_weights_mehler(
        f, process, times, samples, stream(SEED, 4), k_max=6
    )
    cov = spec.extras["cov"]
    cov_se = spec.extras["cov_se"]
    t_arr = spec.extras["times"]
    checks = {"w1_is_2": _at_most(abs(spec.weights[0] - 2.0), 0.0, spec.ses[0])}
    for k in range(2, 7):
        checks[f"w{k}_is_0"] = _at_most(spec.weights[k - 1], 0.0, spec.ses[k - 1])
    for t_check in (0.1, 0.5, 1.0):
        j = int(np.argmin(np.abs(t_arr - t_check)))
        checks[f"cov_at_{t_check}"] = _at_most(
            abs(cov[j] - 2.0 * math.exp(-t_check)), 0.0, cov_se[j]
        )
    return all(checks.values()), {
        "weights": spec.weights.tolist(),
        "ses": spec.ses.tolist(),
        "cov": cov.tolist(),
        **checks,
    }


# -- percolation helpers ------------------------------------------------------

def _boolean_model(gamma: float) -> BooleanModel:
    return boolean_model({"radius": CROSSING_RADIUS}, gamma)


@lru_cache(maxsize=None)
def critical_gamma(seed: int = SEED, n: int = 12) -> tuple[float, float]:
    """Bisection estimate of the crossing-probability-1/2 intensity."""
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))

    def prob_at(gamma, samples, ridx):
        model = _boolean_model(gamma)
        return crossing_probability(model, rect, samples, (seed, 5, ridx))

    return estimate_critical(prob_at, 0.2, 0.6, tolerance=0.02, base_samples=150)


@criterion("5 Schramm-Steif audit")
def criterion_5_schramm_steif(
    sizes=(10, 20, 40), mehler_samples=(2600, 2000, 1200),
    delta_samples=(600, 450, 320),
):
    """Crossing functional at the estimated critical intensity: every chaos
    weight obeys W_k <= k delta_n E[f^2] (k <= 4) and delta_n decreases."""
    gamma, _ = critical_gamma()
    deltas = []
    details: dict = {"gamma": gamma, "per_n": []}
    ok = True
    for idx, n in enumerate(sizes):
        _, _, process, f = crossing_setup(n, gamma)
        times = np.geomspace(0.08, 2.5, 9)
        spec = chaos_weights_mehler(
            f, process, times, mehler_samples[idx], stream(SEED, 6, idx), k_max=4
        )
        rev = line_revealment(n, gamma, delta_samples[idx], stream(SEED, 7, idx))
        ef2 = spec.mean  # {0,1}-valued: E f^2 = E f
        ef2_se = spec.extras["mean_se"]
        audit = chaos.schramm_steif_audit(
            rev.delta, rev.delta_se, spec, ef2, ef2_se, k_max=4
        )
        ok &= audit.passed
        deltas.append((rev.delta, rev.delta_se))
        details["per_n"].append(
            {
                "n": n,
                "delta": rev.delta,
                "delta_se": rev.delta_se,
                "weights": spec.weights.tolist(),
                "weight_ses": spec.ses.tolist(),
                "ef2": ef2,
                "audit_passed": audit.passed,
            }
        )
    decreasing = all(
        deltas[i][0] - deltas[i + 1][0]
        > 0.0
        for i in range(len(deltas) - 1)
    )
    details["delta_strictly_decreasing"] = decreasing
    return ok and decreasing, details


@criterion("6 conditional-moment bound")
def criterion_6_conditional_moment():
    """Exact conditional-moment bound on the 3-cell space with the
    non-attainable stopping set, k in {1, 2}."""
    space, fx, u1 = cond_moment_setup((0.5, 0.3, 0.2))
    u2 = np.array(
        [[0.8, -0.3, 0.1], [-0.3, 0.5, 0.6], [0.1, 0.6, -0.9]]
    )
    res1 = cond_moment_audit(u1, 1, fx.cells_mask, space)
    res2 = cond_moment_audit(u2, 2, fx.cells_mask, space)
    return res1["passed"] and res2["passed"], {
        "k1_lhs": res1["lhs"],
        "k1_rhs": res1["rhs"],
        "k1_margin": res1["margin"],
        "k2_lhs": res2["lhs"],
        "k2_rhs": res2["rhs"],
        "k2_margin": res2["margin"],
        "truncation_mass": space.truncation_mass,
    }


@criterion("7 confetti self-duality")
def criterion_7_confetti_duality(samples: int = 10_000):
    """Symmetric planar confetti at p = 1/2, n = 10, h = r/10: crossing
    probability 1/2 and the per-sample duality XOR everywhere."""
    model = confetti_model({"radius": CROSSING_RADIUS}, 0.5)
    rect = BoxWindow((0.0, 0.0), (10.0, 10.0))
    h = CROSSING_RADIUS / 10.0
    hits, violations = confetti_duality_counts(model, rect, h, samples, (SEED, 8))
    p_hat = hits / samples
    se = _bernoulli_se(p_hat, samples)
    checks = {
        "crossing_prob_half": _at_most(abs(p_hat - 0.5), 0.0, se),
        "duality_xor_all": violations == 0,
    }
    return all(checks.values()), {
        "p_hat": p_hat, "se": se, "samples": samples, **checks
    }


def _markov_functionals(region):
    return [
        ("total_count", lambda c: float(c.size)),
        ("count_region", lambda c: float(c.count_in(region))),
        (
            "count_right_half",
            lambda c: float(
                c.count_in(lambda p: np.atleast_2d(p)[:, 0] > 0.0)
            ),
        ),
        (
            "min_norm",
            lambda c: float(np.linalg.norm(np.atleast_2d(c.points), axis=1).min())
            if c.size
            else 99.0,
        ),
        (
            "straddle_band",
            lambda c: float(
                c.count_in(lambda p: np.abs(np.atleast_2d(p)[:, 1]) < 0.5)
            ),
        ),
    ]


@criterion("8 Markov property")
def criterion_8_markov_property(samples: int = 2_500):
    """KS two-sample tests (Bonferroni over 5 functionals) for the
    ball-growth terminal set and the line-exploration set."""
    window, process, region, _ = empty_space_setup(1.0)
    ball = ball_growth_ctdt(region, (0.0, 0.0)).terminal()
    rep_ball = markov_property_check(
        ball, process, _markov_functionals(region), samples, stream(SEED, 9)
    )

    n = 6
    _, _, process2, expl = line_exploration_setup(n, 0.36)
    mid = np.array([n / 2, n / 2])
    region2 = lambda p: np.linalg.norm(np.atleast_2d(p) - mid, axis=1) <= 1.5
    fns2 = [
        ("total_count", lambda c: float(c.size)),
        ("count_mid_disk", lambda c: float(c.count_in(region2))),
        (
            "count_left",
            lambda c: float(c.count_in(lambda p: np.atleast_2d(p)[:, 0] < n / 2)),
        ),
        (
            "count_band",
            lambda c: float(
                c.count_in(
                    lambda p: np.abs(np.atleast_2d(p)[:, 0] - n / 2) < 1.0
                )
            ),
        ),
        (
            "max_x",
            lambda c: float(np.atleast_2d(c.points)[:, 0].max()) if c.size else -1.0,
        ),
    ]
    rep_expl = markov_property_check(
        expl, process2, fns2, samples, stream(SEED, 10)
    )
    checks = {
        "ball_growth_passes": rep_ball.passed,
        "line_exploration_passes": rep_expl.passed,
    }
    return all(checks.values()), {
        "ball_p_values": rep_ball.p_values,
        "exploration_p_values": rep_expl.p_values,
        "bonferroni_cutoff": rep_ball.cutoff,
        **checks,
    }


@criterion("9 sharp-threshold decay")
def criterion_9_subcritical_decay(samples: int = 20_000):
    """At half the estimated critical intensity, log theta_s is linear in s
    over s in {4,...,16} with negative slope and R^2 > 0.9."""
    gamma_c, _ = critical_gamma()
    model = _boolean_model(0.5 * gamma_c)
    fit = one_arm_decay_fit(model, np.arange(4, 17, 2), samples, (SEED + 11,))
    checks = {"slope_negative": fit["slope"] < 0.0, "r2_above_0.9": fit["r2"] > 0.9}
    return all(checks.values()), {
        "gamma": 0.5 * gamma_c,
        "slope": fit["slope"],
        "r2": fit["r2"],
        "theta": fit["theta"].tolist(),
        **checks,
    }


@criterion("10 noise-sensitivity trend")
def criterion_10_noise_sensitivity(
    sizes=(8, 16, 32), seeds: int = 8, samples: int = 700, t: float = 0.2
):
    """Critical crossing covariance at fixed t decreases with n (Kendall tau
    over seeds) and respects the revealment noise bound."""
    gamma, _ = critical_gamma()
    deltas = {}
    for idx, n in enumerate(sizes):
        rev = line_revealment(n, gamma, 320, stream(SEED, 12, idx))
        deltas[n] = (rev.delta, rev.delta_se)
    pairs = []
    bound_ok = True
    rows = []
    for s_idx in range(seeds):
        for idx, n in enumerate(sizes):
            _, _, process, f = crossing_setup(n, gamma)
            rng = stream(SEED, 13, s_idx, idx)
            base = np.empty(samples)
            shifted = np.empty(samples)
            for i in range(samples):
                eta = process.sample(rng)
                base[i] = f(eta)
                shifted[i] = f(dynamics.resample(eta, t, process, rng))
            cov, cov_se = _cov_se(base, shifted)
            delta, delta_se = deltas[n]
            c_bound = 1.0  # valid sup of E[f_n^2] for indicator functionals
            bound = dynamics.mehler_noise_bound(c_bound, delta, t)
            slack = dynamics.mehler_noise_bound(c_bound, delta_se, t)
            this_ok = _at_most(cov, bound, cov_se + slack)
            bound_ok &= this_ok
            pairs.append((n, cov))
            rows.append(
                {"seed": s_idx, "n": n, "cov": cov, "cov_se": cov_se,
                 "bound": bound, "bound_ok": this_ok}
            )
    tau = stats.kendalltau([p[0] for p in pairs], [p[1] for p in pairs]).statistic
    checks = {"kendall_tau_negative": tau < 0.0, "all_below_bound": bound_ok}
    return all(checks.values()), {
        "kendall_tau": float(tau), "deltas": deltas, "rows": rows[:6], **checks
    }


@criterion("11 truncation bound")
def criterion_11_truncation_bound(samples: int = 4_000):
    """Pareto radii (2+alpha moment with alpha = 1): empirical disagreement
    between full and truncated crossing stays under the analytic bound."""
    n, eps = 32, 0.2
    law = ParetoRadius(0.5, 3.5)  # alpha = shape - 2 = 1.5 > 1 declared margin
    model = BooleanModel(0.4, GrainSpec("ball", law), k=1)
    flips, bound = truncation_flips(model, n, eps, samples, (SEED, 14))
    p_hat = flips / samples
    se = _bernoulli_se(p_hat, samples)
    return _at_most(p_hat, bound, se), {
        "p_flip": p_hat,
        "se": se,
        "analytic_bound": bound,
        "r_n": float(n) ** (1.0 - eps),
        "samples": samples,
    }


@criterion("12 stopping-axiom suite")
def criterion_12_stopping_suite(trials: int = 10_000, probes: int = 200):
    """Every shipped stopping set passes the axiom check with zero failures;
    the non-attainable fixture reproduces its case table and leaves each
    cell unrevealed with positive probability."""
    details: dict = {}
    ok = True

    window, process, region, _ = empty_space_setup(1.0)
    const = ConstantRegionSet(lambda p: np.atleast_2d(p)[:, 0] > 0.0)
    ball = ball_growth_ctdt(region, (0.0, 0.0)).terminal()
    for sub, (name, oracle, proc) in enumerate(
        (
            ("constant", const, process),
            ("ball_growth_terminal", ball, process),
        )
    ):
        rep = verify_stopping_axiom(
            oracle, proc, trials, probes, stream(SEED, 15, sub)
        )
        details[f"{name}_failures"] = len(rep.failures)
        ok &= rep.passed

    model, _, line_process, line = line_exploration_setup(6, 0.36)
    box = BoxWindow((-3.0, -3.0), (3.0, 3.0))
    sphere = component_exploration(model, box, SphereSeed(1.5))
    sphere_process = ProcessSpec(line_process.intensity, box.pad(CROSSING_RADIUS))
    for sub, (name, expl, proc) in enumerate(
        (
            ("line_exploration", line, line_process),
            ("sphere_exploration", sphere, sphere_process),
        )
    ):
        rep = verify_stopping_axiom(expl, proc, trials, probes, stream(SEED, 16, sub))
        details[f"{name}_failures"] = len(rep.failures)
        ok &= rep.passed

    masses = (0.5, 0.3, 0.2)
    fx = nonattainable_fixture(masses)
    dproc = sample_process({"masses": masses})
    rep = verify_stopping_axiom(fx, dproc, trials, 3, stream(SEED, 17))
    details["fixture_failures"] = len(rep.failures)
    ok &= rep.passed

    # exact 4-case table
    table_ok = True
    expected = {
        (0, 0, 0): (1, 1, 1),
        (1, 1, 1): (1, 1, 1),
        (1, 0, 0): (1, 1, 0),
        (1, 0, 1): (1, 1, 0),
        (0, 0, 1): (1, 0, 1),
        (0, 1, 1): (1, 0, 1),
        (0, 1, 0): (0, 1, 1),
        (1, 1, 0): (0, 1, 1),
    }
    for occ, want in expected.items():
        got = tuple(int(b) for b in fx.cells_mask(np.array(occ)))
        table_ok &= got == want
    details["case_table_exact"] = table_ok
    ok &= table_ok

    # positive probability of missing each cell
    miss = np.zeros(3)
    rng = stream(SEED, 18)
    for _ in range(4000):
        eta = dproc.sample(rng)
        lam_in = fx.lam_in_cells(eta.counts())
        miss += lam_in == 0.0
    details["miss_rates"] = (miss / 4000).tolist()
    ok &= bool(np.all(miss > 0))
    return ok, details


def run(names=None, workers: int = 1) -> list[CriterionResult]:
    names = list(names or ALL_CRITERIA)
    unknown = [n for n in names if n not in ALL_CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {n: pool.submit(_run_one, n) for n in names}
            return [futures[n].result() for n in names]
    return [_run_one(n) for n in names]


def _run_one(name: str) -> CriterionResult:
    return ALL_CRITERIA[name]()
