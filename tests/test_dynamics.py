import math

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, poisson

from poissonlab.dynamics import (
    covariance_curve,
    exceptional_times,
    mehler_noise_bound,
    resample,
    simulate_path,
)
from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    FixedRadius,
    GrainSpec,
    crossing,
)
from poissonlab.process import (
    BoxWindow,
    HomogeneousIntensity,
    ProcessSpec,
    RadiusMarks,
)
from poissonlab.rng import stream

UNIT = BoxWindow((0.0, 0.0), (1.0, 1.0))
SPEC3 = ProcessSpec(HomogeneousIntensity(3.0), UNIT)


def _gof_poisson(counts, lam):
    counts = np.asarray(counts)
    kmax = counts.max()
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    exp = poisson.pmf(np.arange(kmax + 1), lam) * len(counts)
    exp[-1] += poisson.sf(kmax, lam) * len(counts)
    while exp[-1] < 5 and len(exp) > 2:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    return chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


# -- resampling -------------------------------------------------------------------


def test_resample_identity_and_fresh():
    cfg = SPEC3.sample(stream(301))
    assert resample(cfg, 0.0, SPEC3, stream(302)) is cfg
    with pytest.raises(ValueError):
        resample(cfg, -1.0, SPEC3, stream(302))


def test_resample_names_a_nan_step():
    """A NaN step is refused by ``resample`` itself, not by the thinning
    probability it would become; an infinite step keeps no point and draws a
    fresh sample."""
    cfg = SPEC3.sample(stream(301))
    with pytest.raises(ValueError, match="t must be >= 0, got nan"):
        resample(cfg, math.nan, SPEC3, stream(302))
    fresh = resample(cfg, math.inf, SPEC3, stream(302))
    assert not np.isin(fresh.points, cfg.points).any()


def test_resample_preserves_poisson_law():
    for t, seed in ((0.1, 303), (1.0, 304)):
        counts = []
        for i in range(30_000):
            eta = SPEC3.sample(stream(seed, i, 0))
            counts.append(resample(eta, t, SPEC3, stream(seed, i, 1)).size)
        assert _gof_poisson(counts, 3.0) >= 0.01, t


def test_resample_semigroup_two_routes():
    # resample(resample(c, s), t) equals resample(c, s + t) in law: compare
    # the means of five functionals over independent replicas.
    s, t = 0.4, 0.7
    fns = [
        lambda c: float(c.size),
        lambda c: float(c.count_in(lambda p: p[:, 0] < 0.5)),
        lambda c: float(c.size % 2),
        lambda c: float(c.size == 0),
        lambda c: float(min(c.size, 3)),
    ]
    a = np.zeros((5, 8000))
    b = np.zeros((5, 8000))
    for i in range(8000):
        eta = SPEC3.sample(stream(305, i, 0))
        two = resample(
            resample(eta, s, SPEC3, stream(305, i, 1)), t, SPEC3, stream(305, i, 2)
        )
        one = resample(eta, s + t, SPEC3, stream(305, i, 3))
        for j, fn in enumerate(fns):
            a[j, i] = fn(two)
            b[j, i] = fn(one)
    for j in range(5):
        se = math.hypot(a[j].std() / 89.4, b[j].std() / 89.4)
        assert abs(a[j].mean() - b[j].mean()) <= 3 * se + 1e-12


# -- birth-death paths ---------------------------------------------------------------


def test_empty_intensity_empty_path():
    spec = ProcessSpec(HomogeneousIntensity(0.0), UNIT)
    path = simulate_path(spec, 2.0, stream(306))
    assert path.initial().size == 0 and len(path.events) == 0


def test_path_stationarity_chi_square():
    counts = [
        simulate_path(SPEC3, 2.0, stream(307, i)).alive_at(2.0).size
        for i in range(10_000)
    ]
    assert _gof_poisson(counts, 3.0) >= 0.01


def test_path_marginal_matches_resample():
    t = 0.6
    a, b = [], []
    for i in range(4000):
        path = simulate_path(SPEC3, 1.0, stream(308, i))
        a.append(path.alive_at(t).size)
        eta = SPEC3.sample(stream(309, i, 0))
        b.append(resample(eta, t, SPEC3, stream(309, i, 1)).size)
    assert ks_2samp(a, b).pvalue >= 0.01


def test_path_functional_means_stationary_along_path():
    h = 2.0
    fns = [lambda c: float(c.size), lambda c: float(c.size == 0)]
    vals = {0.0: [[], []], h / 2: [[], []], h: [[], []]}
    for i in range(6000):
        path = simulate_path(SPEC3, h, stream(310, i))
        for t in vals:
            cfg = path.alive_at(t)
            for j, fn in enumerate(fns):
                vals[t][j].append(fn(cfg))
    for j in range(2):
        series = [np.asarray(vals[t][j]) for t in (0.0, h / 2, h)]
        for other in series[1:]:
            se = math.hypot(
                series[0].std() / math.sqrt(len(series[0])),
                other.std() / math.sqrt(len(other)),
            )
            assert abs(series[0].mean() - other.mean()) <= 3 * se


def test_path_horizon_validation():
    """A horizon that is not finite and positive is refused by name, before
    numpy's Poisson draw would refuse the birth count it becomes."""
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"horizon must be finite and > 0, got {horizon}"):
            simulate_path(SPEC3, horizon, stream(311))


def test_path_csv_shape():
    path = simulate_path(SPEC3, 1.0, stream(312))
    lines = path.to_csv().strip().splitlines()
    assert lines[0] == "time,kind,point_id,x0,x1"
    assert len(lines) == 1 + len(path.events)


# -- covariance curves ----------------------------------------------------------------


def test_covariance_curve_count():
    spec = ProcessSpec(HomogeneousIntensity(2.0), UNIT)
    curve = covariance_curve(
        lambda c: float(c.size), spec, [0.1, 0.5, 1.0], 8000, stream(313)
    )
    for t, c, s in zip(curve.times, curve.cov, curve.se):
        assert abs(c - 2.0 * math.exp(-t)) <= 3 * s


def test_covariance_curve_constant_and_t0():
    spec = ProcessSpec(HomogeneousIntensity(2.0), UNIT)
    flat = covariance_curve(lambda c: 4.0, spec, [0.2, 1.0], 500, stream(314))
    assert np.allclose(flat.cov, 0.0)
    var = covariance_curve(
        lambda c: float(c.size), spec, [0.0, 0.5], 8000, stream(315)
    )
    assert abs(var.cov[0] - 2.0) <= 3 * var.se[0]  # Cov at t=0 is Var = 2


# -- exceptional times ----------------------------------------------------------------------


def test_exceptional_times_basic():
    path = simulate_path(SPEC3, 1.0, stream(322))
    assert exceptional_times(path, lambda c: 1.0) == []
    parity = lambda c: float(c.size % 2)
    assert len(exceptional_times(path, parity)) == len(path.events)


def test_exceptional_times_crossing_grows_with_window():
    gamma = 0.36
    medians = []
    for n in (5, 8, 11):
        model = BooleanModel(gamma, GrainSpec("ball", FixedRadius(1.0)), k=1)
        rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
        process = ProcessSpec(
            HomogeneousIntensity(gamma, RadiusMarks(FixedRadius(1.0))), rect.pad(1.0)
        )
        f = lambda cfg: 1.0 if crossing(BooleanWorld(cfg, model, rect)) else 0.0
        counts = []
        for s in range(24):
            path = simulate_path(process, 1.0, stream(323, n, s))
            counts.append(len(exceptional_times(path, f)))
        medians.append(np.median(counts))
    assert medians[0] < medians[-1]


# -- Mehler noise bound --------------------------------------------------------------------


def test_mehler_noise_bound_shape():
    assert mehler_noise_bound(1.0, 0.5, 0.2) == pytest.approx(
        0.5 * math.exp(-0.2) / (1 - math.exp(-0.2)) ** 2
    )
    assert mehler_noise_bound(1.0, 0.5, 0.0) == math.inf
