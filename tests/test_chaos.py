import itertools
import math

import numpy as np
import pytest

from poissonlab.chaos import (
    DiscreteOracleSpace,
    _resampled_cov,
    binary_l1_distance,
    chaos_weights_exact,
    chaos_weights_mehler,
    cond_moment_audit,
    osss_audit,
    pathwise_multiple_integral,
    poincare_audit,
    schramm_steif_audit,
    sqrt_osss_audit,
)
from poissonlab.dynamics import covariance_curve
from poissonlab.process import (
    BoxWindow,
    CellIntensity,
    DiscreteWindow,
    HomogeneousIntensity,
    ProcessSpec,
)
from poissonlab.rng import stream
from poissonlab.stopping import (
    ball_growth_ctdt,
    nonattainable_fixture,
    probe_grid,
    revealment,
)

WINDOW = BoxWindow((-1.0, -1.0), (1.0, 1.0))
SPEC = ProcessSpec(HomogeneousIntensity(1.0), WINDOW)
R_W = 1.0 / math.sqrt(math.pi)


def disk_region(p):
    return np.linalg.norm(np.atleast_2d(p), axis=1) <= R_W


def empty_indicator(cfg):
    return 1.0 if cfg.count_in(disk_region) == 0 else 0.0


# -- exact weights ------------------------------------------------------------------


def test_exact_weights_single_cell():
    space = DiscreteOracleSpace((1.0,))
    f = lambda counts: (np.atleast_2d(counts)[:, 0] == 0).astype(float)
    spec = chaos_weights_exact(f, space, 6)
    for k in range(1, 7):
        want = math.exp(-2.0) / math.factorial(k)
        assert spec.weights[k - 1] == pytest.approx(want, abs=1e-12)
    assert spec.mean == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_exact_weights_linear_and_constant():
    space = DiscreteOracleSpace((1.5,))
    count = lambda c: np.atleast_2d(c)[:, 0].astype(float)
    spec = chaos_weights_exact(count, space, 4)
    assert spec.weights[0] == pytest.approx(1.5, abs=1e-9)
    assert np.all(spec.weights[1:] <= 1e-9)
    const = lambda c: np.full(len(np.atleast_2d(c)), 2.5)
    assert np.all(chaos_weights_exact(const, space, 3).weights == 0.0)


def test_exact_variance_identity():
    space = DiscreteOracleSpace((0.5, 0.3, 0.2), tail_bound=1e-14)
    f = lambda c: ((np.atleast_2d(c)[:, 0] + np.atleast_2d(c)[:, 2]) == 0).astype(float)
    spec = chaos_weights_exact(f, space, 14)
    assert abs(spec.second_moment_lhs() - spec.extras["ef2"]) <= 1e-10


# -- Mehler regression ----------------------------------------------------------------


def test_mehler_pure_first_chaos():
    proc = ProcessSpec(HomogeneousIntensity(2.0), BoxWindow((0.0, 0.0), (1.0, 1.0)))
    spec = chaos_weights_mehler(
        lambda c: float(c.size), proc, [0.1, 0.3, 0.5, 0.8, 1.2, 2.0], 8000,
        stream(208), k_max=6,
    )
    assert abs(spec.weights[0] - 2.0) <= 3 * spec.ses[0]
    assert np.all(spec.weights[1:] <= 3 * spec.ses[1:] + 1e-9)
    # residuals within 3 SE of the covariance estimates
    assert np.all(
        np.abs(spec.extras["residuals"]) <= 3 * spec.extras["cov_se"] + 1e-9
    )


def test_mehler_matches_exact_on_discrete_space():
    masses = (1.0,)
    proc = ProcessSpec(CellIntensity(masses), DiscreteWindow(1))
    f_cfg = lambda cfg: 1.0 if cfg.size == 0 else 0.0
    spec_mc = chaos_weights_mehler(
        f_cfg, proc, [0.1, 0.3, 0.6, 1.0, 1.5, 2.2, 3.0], 12_000, stream(209), k_max=4
    )
    space = DiscreteOracleSpace(masses)
    f_counts = lambda c: (np.atleast_2d(c)[:, 0] == 0).astype(float)
    spec_exact = chaos_weights_exact(f_counts, space, 4)
    for k in range(1, 5):
        assert (
            abs(spec_mc.weights[k - 1] - spec_exact.weights[k - 1])
            <= 3 * spec_mc.ses[k - 1] + 0.01
        )
    # mc identity: mean^2 + sum W <= E f^2 within noise
    ef2 = spec_exact.extras["ef2"]
    assert spec_mc.second_moment_lhs() <= ef2 + 0.02


def test_mehler_covariance_vanishes_at_large_t():
    proc = ProcessSpec(HomogeneousIntensity(2.0), BoxWindow((0.0, 0.0), (1.0, 1.0)))
    spec = chaos_weights_mehler(
        lambda c: float(c.size), proc, [0.2, 0.5, 1.0, 2.0, 4.0, 8.0], 4000,
        stream(210), k_max=6,
    )
    cov = spec.extras["cov"]
    se = spec.extras["cov_se"]
    assert abs(cov[-1]) <= 3 * se[-1] + 1e-3


def per_row_cov(base, vals, idx):
    """The Mehler fit's covariance as first written: every row indexed and
    centred inside the loop, with its own 1-D mean."""
    b = base[idx]
    return np.array(
        [np.mean((vals[j, idx] - vals[j, idx].mean()) * (b - b.mean()))
         * len(idx) / (len(idx) - 1)
         for j in range(len(vals))]
    )


@pytest.mark.parametrize("m", [8, 129, 2600])
def test_resampled_cov_is_bit_identical_to_per_row_formula(m):
    rng = np.random.default_rng(m)
    cases = [
        (rng.normal(size=m) / 3.0, rng.lognormal(size=(9, m)) / 7.0),
        (rng.integers(0, 2, m) / 3.0, rng.integers(0, 2, (9, m)) * 0.1),
    ]
    for base, vals in cases:
        for idx in (np.arange(m), *(rng.integers(0, m, size=m) for _ in range(4))):
            got = _resampled_cov(base, vals, idx)
            assert got.tobytes() == per_row_cov(base, vals, idx).tobytes()


def test_mehler_requires_enough_times():
    proc = ProcessSpec(HomogeneousIntensity(1.0), WINDOW)
    with pytest.raises(ValueError):
        chaos_weights_mehler(lambda c: 1.0, proc, [0.1, 0.2], 100, stream(211), k_max=4)


# -- audits ------------------------------------------------------------------------------


def test_poincare_audit_cases():
    rep = poincare_audit(empty_indicator, SPEC, 25_000, stream(212))
    assert rep.passed
    assert abs(rep.lhs - math.exp(-1) * (1 - math.exp(-1))) <= 3 * rep.lhs_se
    assert abs(rep.rhs - math.exp(-1)) <= 3 * rep.rhs_se
    # linear functional: equality Var = rhs = lambda(X)
    rep2 = poincare_audit(lambda c: float(c.size), SPEC, 25_000, stream(213))
    assert abs(rep2.lhs - 4.0) <= 3 * rep2.lhs_se
    assert abs(rep2.rhs - 4.0) <= 3 * rep2.rhs_se
    rep3 = poincare_audit(lambda c: 3.0, SPEC, 500, stream(214))
    assert rep3.lhs == 0.0 and rep3.rhs == 0.0


def test_osss_audit_sharp_empty_space():
    ctdt = ball_growth_ctdt(disk_region, (0.0, 0.0))
    rep = osss_audit(empty_indicator, ctdt, SPEC, 30_000, stream(215))
    assert rep.passed
    both = 2 * math.exp(-1) * (1 - math.exp(-1))
    assert abs(rep.lhs - both) <= 3 * rep.lhs_se
    assert abs(rep.rhs - both) <= 3 * rep.rhs_se
    # the two lhs routes agree
    pair = rep.extras["pair_lhs"]
    assert abs(pair - rep.lhs) <= 0.02


def test_osss_audit_constant():
    ctdt = ball_growth_ctdt(disk_region, (0.0, 0.0))
    rep = osss_audit(lambda c: 1.0, ctdt, SPEC, 400, stream(216))
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_osss_audit_left_side_follows_from_the_values_of_f():
    """A {0,1} functional gets 2 p (1-p) without being told; the count,
    which takes other values, gets the mean of |f(eta) - f(eta')|."""
    ctdt = ball_growth_ctdt(disk_region, (0.0, 0.0))
    rep = osss_audit(empty_indicator, ctdt, SPEC, 400, stream(218))
    assert rep.extras["binary_mode"] is True
    hits = 400 * (1.0 - math.sqrt(1.0 - 2.0 * rep.lhs)) / 2.0  # lhs = 2 p (1-p)
    assert rep.lhs == binary_l1_distance(round(hits) / 400, 400)[0]
    count = lambda c: float(c.size)
    rep = osss_audit(count, ctdt, SPEC, 400, stream(219), determination_checks=0)
    assert rep.extras["binary_mode"] is False
    assert rep.lhs == rep.extras["pair_lhs"] > 1.0


def test_osss_audit_rejects_undetermined():
    ctdt = ball_growth_ctdt(disk_region, (0.0, 0.0))
    outside = lambda c: float(c.count_in(lambda p: np.atleast_2d(p)[:, 0] > 0.9))
    with pytest.raises(ValueError):
        osss_audit(outside, ctdt, SPEC, 200, stream(217))


def test_schramm_steif_delta_one_reduces_to_isometry_bound():
    # Z = whole space: W_k <= k E[f^2], implied by the variance identity
    space = DiscreteOracleSpace((1.0,))
    f_counts = lambda c: (np.atleast_2d(c)[:, 0] == 0).astype(float)
    spec = chaos_weights_exact(f_counts, space, 6)
    ef2 = spec.extras["ef2"]
    rep = schramm_steif_audit(1.0, 0.0, spec, ef2, 0.0)
    assert rep.passed
    for row in rep.extras["rows"]:
        assert row["weight"] <= row["k"] * ef2 + 1e-12


def test_schramm_steif_empty_space_terminal_set():
    # W_1 = e^-2 <= 1 * delta * e^-1 with delta the terminal-set revealment
    space = DiscreteOracleSpace((1.0,))
    f_counts = lambda c: (np.atleast_2d(c)[:, 0] == 0).astype(float)
    spec = chaos_weights_exact(f_counts, space, 4)
    term = ball_growth_ctdt(disk_region, (0.0, 0.0))
    grid = probe_grid(WINDOW, 0.1)
    rev = revealment(term, SPEC, grid, 2000, stream(222), grid_spacing=0.1)
    ef2 = math.exp(-1.0)
    rep = schramm_steif_audit(rev.delta, rev.delta_se, spec, ef2, 0.0)
    assert rep.passed
    assert spec.weights[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert spec.weights[0] <= rev.delta * ef2 + 3 * rev.delta_se * ef2


def test_sqrt_osss_audit():
    # delta = 1 reduces to three times the Poincare bound
    rep = sqrt_osss_audit(empty_indicator, 1.0, 0.0, SPEC, 20_000, stream(223))
    assert rep.passed
    assert abs(rep.rhs - 3 * math.exp(-1)) <= 3 * rep.rhs_se
    # with the true terminal-set revealment it still holds
    term = ball_growth_ctdt(disk_region, (0.0, 0.0))
    rev = revealment(term, SPEC, probe_grid(WINDOW, 0.1), 1500, stream(224), 0.1)
    rep2 = sqrt_osss_audit(
        empty_indicator, rev.delta, rev.delta_se, SPEC, 20_000, stream(225)
    )
    assert rep2.passed
    rep3 = sqrt_osss_audit(lambda c: 5.0, 1.0, 0.0, SPEC, 300, stream(226))
    assert rep3.lhs == 0.0 and rep3.rhs == 0.0


def test_sqrt_osss_audit_reuses_the_poincare_draws():
    poin = poincare_audit(empty_indicator, SPEC, 2000, stream(227))
    rep = sqrt_osss_audit(empty_indicator, 0.3, 0.01, SPEC, 2000, stream(227))
    assert (rep.lhs, rep.lhs_se) == (poin.lhs, poin.lhs_se)
    assert rep.rhs == 3.0 * math.sqrt(0.3) * poin.rhs


def test_covariance_curve_and_mehler_share_one_sampler():
    times = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0]
    curve = covariance_curve(lambda c: float(c.size), SPEC, times, 400, stream(228))
    spec = chaos_weights_mehler(
        lambda c: float(c.size), SPEC, times, 400, stream(228), k_max=4
    )
    assert np.array_equal(curve.se, spec.extras["cov_se"])
    assert np.array_equal(curve.times, spec.extras["times"])


# -- conditional moment bound -----------------------------------------------------------


def test_cond_moment_full_space_equality():
    space = DiscreteOracleSpace((0.5, 0.3, 0.2), tail_bound=1e-14)
    u = np.array([[0.7, -0.2, 0.4], [-0.2, 1.0, 0.0], [0.4, 0.0, -0.5]])
    res = cond_moment_audit(u, 2, lambda c: np.ones(3, bool), space)
    assert res["passed"]
    assert res["lhs"] == pytest.approx(res["isometry"], abs=1e-10)


def test_cond_moment_empty_and_fixture():
    space = DiscreteOracleSpace((0.5, 0.3, 0.2), tail_bound=1e-14)
    u1 = np.array([1.0, 0.0, 0.0])
    res0 = cond_moment_audit(u1, 1, lambda c: np.zeros(3, bool), space)
    assert res0["rhs"] == 0.0 and res0["lhs"] <= 1e-15
    fx = nonattainable_fixture((0.5, 0.3, 0.2))
    res1 = cond_moment_audit(u1, 1, fx.cells_mask, space)
    assert res1["passed"] and res1["lhs"] <= res1["rhs"] + 1e-12


def test_cond_moment_rejects_asymmetric_kernel():
    space = DiscreteOracleSpace((0.5, 0.3, 0.2))
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        cond_moment_audit(bad, 2, lambda c: np.ones(3, bool), space)


def test_pathwise_integral_isometry_k3():
    space = DiscreteOracleSpace((0.4, 0.3), tail_bound=1e-14)
    masses = np.asarray(space.masses)
    rng = stream(227)
    u = rng.normal(size=(2, 2, 2))
    u = (
        u
        + u.transpose(0, 2, 1)
        + u.transpose(1, 0, 2)
        + u.transpose(1, 2, 0)
        + u.transpose(2, 0, 1)
        + u.transpose(2, 1, 0)
    ) / 6.0
    vals = np.array(
        [
            pathwise_multiple_integral(u, space.grid[r].astype(float), masses)
            for r in range(len(space.grid))
        ]
    )
    norm = 6.0 * float(
        sum(
            u[c] ** 2 * masses[c[0]] * masses[c[1]] * masses[c[2]]
            for c in itertools.product(range(2), repeat=3)
        )
    )
    assert space.expectation(vals) == pytest.approx(0.0, abs=1e-9)
    assert space.expectation(vals**2) == pytest.approx(norm, rel=1e-9)


def test_binary_l1_distance():
    val, se = binary_l1_distance(0.3, 10_000)
    assert val == pytest.approx(2 * 0.3 * 0.7)
