import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, pearsonr, poisson

from poissonlab.process import (
    BoxWindow,
    CellIntensity,
    ConfettiMarks,
    DiscreteWindow,
    FixedRadius,
    HomogeneousIntensity,
    ParetoRadius,
    PointConfig,
    ProcessSpec,
    RadiusMarks,
    UniformRadius,
    _at_most,
    _bernoulli_se,
    _cov_se,
    _csv,
    _mean_se,
    _plain,
    _var_se,
    mecke_check,
    restrict,
    sample_poisson,
    superpose,
    thin,
)
from poissonlab.rng import stream

UNIT_SQ = BoxWindow((0.0, 0.0), (1.0, 1.0))


def test_mean_count_homogeneous():
    spec = ProcessSpec(HomogeneousIntensity(2.0), UNIT_SQ)
    counts = np.array([spec.sample(stream(1, i)).size for i in range(100_000)])
    se = math.sqrt(2.0 / len(counts))
    assert abs(counts.mean() - 2.0) <= 3 * se


def test_counts_chi_square_gof():
    spec = ProcessSpec(HomogeneousIntensity(2.0), UNIT_SQ)
    counts = np.array([spec.sample(stream(2, i)).size for i in range(100_000)])
    kmax = counts.max()
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    exp = poisson.pmf(np.arange(kmax + 1), 2.0) * len(counts)
    exp[-1] += poisson.sf(kmax, 2.0) * len(counts)
    # merge sparse tail bins
    while exp[-1] < 5 and len(exp) > 2:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    stat = chisquare(obs, exp * obs.sum() / exp.sum())
    assert stat.pvalue >= 0.01


def test_zero_mass_cell():
    cfg = sample_poisson(CellIntensity((0.0, 5.0)), DiscreteWindow(2), stream(3))
    assert cfg.size > 0
    assert np.all(cfg.points == 1)


def test_disjoint_regions_independent():
    spec = ProcessSpec(HomogeneousIntensity(4.0), UNIT_SQ)
    left = lambda p: p[:, 0] < 0.5
    right = lambda p: p[:, 0] >= 0.5
    a, b = [], []
    for i in range(20_000):
        cfg = spec.sample(stream(4, i))
        a.append(cfg.count_in(left))
        b.append(cfg.count_in(right))
    r, _ = pearsonr(a, b)
    assert abs(r) <= 3.0 / math.sqrt(len(a))


def test_infinite_mass_rejected():
    with pytest.raises(ValueError):
        sample_poisson(HomogeneousIntensity(math.inf), UNIT_SQ, stream(5))


BUILD_BY_FIELD = {
    "gamma": HomogeneousIntensity,
    "cell masses": lambda m: CellIntensity((1.0, m)),
    "horizon": lambda h: ConfettiMarks(0.5, h, FixedRadius(1.0), FixedRadius(1.0)),
}


@pytest.mark.parametrize("field", BUILD_BY_FIELD)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_intensities_reject_a_rate_not_finite_or_negative(field, bad):
    """A NaN or infinite gamma, cell mass or confetti horizon is refused when
    it is constructed, by a message that names the value, not at the first
    draw."""
    message = f"{field} must be finite and >=? 0, got {bad}"
    with pytest.raises(ValueError, match=message):
        BUILD_BY_FIELD[field](bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_box_window_rejects_non_finite_bounds(bad):
    for lo, hi in (((0.0, 0.0), (bad, 1.0)), ((bad, 0.0), (1.0, 1.0))):
        with pytest.raises(ValueError, match="bounds must be finite.*" + str(bad)):
            BoxWindow(lo, hi)


@pytest.mark.parametrize("law, args, bad", [
    (FixedRadius, (-0.5,), "-0.5"),
    (FixedRadius, (0.0,), "0.0"),
    (FixedRadius, (math.inf,), "inf"),
    (FixedRadius, (math.nan,), "nan"),
    (UniformRadius, (-1.0, 1.0), "-1.0"),
    (UniformRadius, (1.0, 1.0), "1.0, 1.0"),
    (UniformRadius, (2.0, 1.0), "2.0, 1.0"),
    (UniformRadius, (0.5, math.inf), "inf"),
    (UniformRadius, (math.nan, 1.0), "nan"),
    (ParetoRadius, (math.inf, math.nan), "inf, nan"),
    (ParetoRadius, (0.5, math.inf), "inf"),
    (ParetoRadius, (-0.5, 3.5), "-0.5"),
    (ParetoRadius, (0.5, 0.0), "0.0"),
])
def test_radius_laws_reject_non_positive_or_non_finite_radii(law, args, bad):
    """A negative radius would shrink the padded window, and the grain
    filter (r^2) and the overlap test (r_i + r_j) would read its sign
    differently."""
    with pytest.raises(ValueError, match="got .*" + re.escape(bad)):
        law(*args)


# -- restrict / superpose algebra ---------------------------------------------


@st.composite
def configs(draw):
    n = draw(st.integers(0, 12))
    pts = draw(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=n, max_size=n
        )
    )
    arr = np.array(pts, dtype=float).reshape(n, 2)
    return PointConfig(UNIT_SQ, arr)


@given(configs(), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_restrict_composition(cfg, a, b):
    pa = lambda p: p[:, 0] <= a
    pb = lambda p: p[:, 1] <= b
    lhs = restrict(restrict(cfg, pa), pb)
    rhs = restrict(cfg, lambda p: pa(p) & pb(p))
    assert np.array_equal(np.sort(lhs.points, axis=0), np.sort(rhs.points, axis=0))


@given(configs())
@settings(max_examples=40, deadline=None)
def test_restrict_identity_and_superpose(cfg):
    assert restrict(cfg, lambda p: np.ones(len(p), bool)).size == cfg.size
    empty = PointConfig.empty(UNIT_SQ)
    assert superpose(cfg, empty).size == cfg.size
    both = superpose(cfg, cfg)
    assert both.size == 2 * cfg.size
    # commutativity as multisets
    ab = np.sort(superpose(cfg, empty).points.view("f8").reshape(-1, 2), axis=0)
    ba = np.sort(superpose(empty, cfg).points.view("f8").reshape(-1, 2), axis=0)
    assert np.array_equal(ab, ba)


def test_restrict_keeps_one_of_three():
    cfg = PointConfig(UNIT_SQ, np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]))
    out = restrict(cfg, lambda p: p[:, 0] < 0.2)
    assert out.size == 1


def test_superpose_window_mismatch():
    other = BoxWindow((0.0, 0.0), (2.0, 2.0))
    with pytest.raises(ValueError):
        superpose(PointConfig.empty(UNIT_SQ), PointConfig.empty(other))


def test_superpose_count_additivity():
    a = PointConfig(UNIT_SQ, np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]))
    b = PointConfig(UNIT_SQ, np.array([[0.7, 0.7], [0.8, 0.8]]))
    assert superpose(a, b).size == 5


# -- thinning ------------------------------------------------------------------


def test_thin_extremes():
    cfg = ProcessSpec(HomogeneousIntensity(5.0), UNIT_SQ).sample(stream(6))
    assert thin(cfg, 1.0, stream(7)).size == cfg.size
    assert thin(cfg, 0.0, stream(7)).size == 0
    with pytest.raises(ValueError):
        thin(cfg, 1.5, stream(7))


def test_thinned_process_is_poisson():
    # gamma=4 on the unit interval (1-d box), keep 1/2 -> Poisson(2)
    line = BoxWindow((0.0,), (1.0,))
    spec = ProcessSpec(HomogeneousIntensity(4.0), line)
    counts = np.array(
        [
            thin(spec.sample(stream(8, i)), 0.5, stream(9, i)).size
            for i in range(100_000)
        ]
    )
    se = math.sqrt(2.0 / len(counts))
    assert abs(counts.mean() - 2.0) <= 3 * se
    kmax = counts.max()
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    exp = poisson.pmf(np.arange(kmax + 1), 2.0) * len(counts)
    exp[-1] += poisson.sf(kmax, 2.0) * len(counts)
    while exp[-1] < 5 and len(exp) > 2:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    assert chisquare(obs, exp * obs.sum() / exp.sum()).pvalue >= 0.01


def test_take_rejects_a_mask_of_the_wrong_shape():
    pts = np.linspace(0.0, 1.0, 10).reshape(5, 2)
    cfg = PointConfig(UNIT_SQ, pts, {"radius": np.arange(5.0)})
    for mask in (np.zeros(0, dtype=bool), np.ones(cfg.size - 1, dtype=bool),
                 np.ones(cfg.size + 1, dtype=bool), np.ones((1, cfg.size), dtype=bool)):
        with pytest.raises(ValueError, match="mask of shape"):
            cfg.take(mask)
    half = cfg.take(np.arange(cfg.size) % 2 == 0)
    assert half.size == (cfg.size + 1) // 2
    assert np.array_equal(half.marks["radius"], cfg.marks["radius"][::2])
    empty = PointConfig.empty(UNIT_SQ)
    assert empty.take(np.zeros(0, dtype=bool)).size == 0


def test_pass_rule_is_three_standard_errors_elementwise():
    assert _at_most(1.375, 1.0, 0.125) and not _at_most(1.5, 1.0, 0.125)
    assert _at_most(abs(2.0 - 2.25), 0.0, 0.125)  # the two-sided form
    np.testing.assert_array_equal(
        _at_most(np.array([0.0, 0.5, -5.0]), 0.0, np.array([0.125, 0.125, 0.0])),
        [True, False, True],
    )


@pytest.mark.parametrize("estimate", [
    lambda v: _var_se(v), lambda v: _cov_se(v, v)
], ids=["var", "cov"])
def test_variance_estimates_need_two_values(estimate):
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"at least 2 samples, got {n}"):
            estimate(np.ones(n))
    assert estimate(np.array([1.0, 3.0]))[0] == 2.0


# -- Mecke ----------------------------------------------------------------------


def test_mecke_constant_functional():
    spec = ProcessSpec(HomogeneousIntensity(2.0), UNIT_SQ)
    rep = mecke_check(lambda x, cfg: 1.0, spec.intensity, spec.window, 4000, stream(10))
    assert rep.passed and rep.name == "mecke" and rep.samples == 4000
    assert abs(rep.lhs - 2.0) <= 3 * rep.lhs_se
    assert abs(rep.rhs - 2.0) <= 3 * rep.rhs_se


def test_mecke_single_cell_indicator():
    # f(x, mu) = 1{mu(X) = 1} on one cell of mass 1.
    # Enumeration oracle: lhs = E[N 1{N=1}] = P(N=1) = e^-1;
    # rhs = E[1{N+1=1}] = P(N=0) = e^-1.
    target = math.exp(-1.0)
    lhs_oracle = sum(
        n * (n == 1) * poisson.pmf(n, 1.0) for n in range(30)
    )
    rhs_oracle = sum((n + 1 == 1) * poisson.pmf(n, 1.0) for n in range(30))
    assert abs(lhs_oracle - target) < 1e-12 and abs(rhs_oracle - target) < 1e-12
    rep = mecke_check(
        lambda x, cfg: float(cfg.size == 1),
        CellIntensity((1.0,)),
        DiscreteWindow(1),
        20_000,
        stream(11),
    )
    assert rep.passed
    assert abs(rep.lhs - target) <= 3 * rep.lhs_se
    assert abs(rep.rhs - target) <= 3 * rep.rhs_se


def test_mecke_region_indicator():
    # f(x, mu) = 1{x in W} 1{mu(W) = 1} with lambda(W) = 1 (W = half of a
    # gamma=2 unit square): same e^-1 both sides by the same oracle.
    target = math.exp(-1.0)
    w_region = lambda p: np.atleast_2d(p)[:, 0] < 0.5
    rep = mecke_check(
        lambda x, cfg: float(x[0] < 0.5) * float(cfg.count_in(w_region) == 1),
        HomogeneousIntensity(2.0),
        UNIT_SQ,
        20_000,
        stream(12),
    )
    assert rep.passed
    assert abs(rep.lhs - target) <= 3 * rep.lhs_se


def test_mecke_random_bounded_functionals():
    spec = ProcessSpec(HomogeneousIntensity(1.5), UNIT_SQ)
    gen = stream(13)
    for trial in range(5):
        x0 = gen.uniform(0.2, 0.8, size=2)
        rad = gen.uniform(0.1, 0.4)
        cap = int(gen.integers(1, 5))
        region = lambda p, x0=x0, rad=rad: (
            np.linalg.norm(np.atleast_2d(p) - x0, axis=1) <= rad
        )

        def f(x, cfg, region=region, cap=cap):
            return min(cfg.count_in(region), cap) / (1.0 + np.sum(x))

        rep = mecke_check(
            f, spec.intensity, spec.window, 6000, stream(14, trial)
        )
        assert rep.passed, f"functional {trial} failed: {rep.to_dict()}"


def test_mecke_overflow_guard():
    with pytest.raises(OverflowError):
        mecke_check(
            lambda x, cfg: 1e13,
            HomogeneousIntensity(2.0),
            UNIT_SQ,
            10,
            stream(15),
        )


def test_duplicate_location_rate_zero():
    spec = ProcessSpec(HomogeneousIntensity(3.0), UNIT_SQ)
    dupes = 0
    for i in range(10_000):
        cfg = spec.sample(stream(18, i))
        if cfg.size > 1:
            dupes += len(np.unique(cfg.points, axis=0)) < cfg.size
    assert dupes == 0


def test_mean_se_small_samples():
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"at least 2 samples, got {n}"):
            _mean_se(np.full(n, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = np.array([0.1, 0.7])
        assert _mean_se(vals) == (vals.mean(), vals.std(ddof=1) / math.sqrt(2))


def test_bernoulli_se_scalar_is_float_and_arrays_match():
    assert type(_bernoulli_se(0.3, 10)) is float
    assert _bernoulli_se(0.3, 10) == math.sqrt(0.3 * (1.0 - 0.3) / 10)
    p = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(_bernoulli_se(p, 10), [_bernoulli_se(v, 10) for v in p])


def test_box_window_cached_bounds_keep_every_stream():
    """Sampling from the window's cached bound arrays and volume draws the
    same stream, bit for bit, as converting the bound tuples on each call."""
    window = BoxWindow((-1.25, 0.5), (3.0, 2.75))
    law = UniformRadius(0.5, 1.5)
    spec = ProcessSpec(HomogeneousIntensity(7.0, RadiusMarks(law)), window)
    for seed in range(5):
        got = spec.sample(stream(60, seed))
        rng = stream(60, seed)
        volume = float(np.prod(np.asarray(window.hi) - np.asarray(window.lo)))
        n = int(rng.poisson(7.0 * volume))
        pts = rng.uniform(np.asarray(window.lo), np.asarray(window.hi), size=(n, 2))
        assert np.array_equal(got.points, pts)
        assert np.array_equal(got.marks["radius"], law.sample(rng, n))
    assert window.volume == volume
    for bound in (window.lo_array, window.hi_array):
        assert not bound.flags.writeable
    padded = window.pad(0.5)
    assert padded.volume == float(np.prod(np.asarray(padded.hi) - np.asarray(padded.lo)))
    assert padded.volume != window.volume
    assert np.array_equal(padded.lo_array, np.asarray(window.lo) - 0.5)


def test_one_csv_number_format_and_one_json_normal_form():
    """Every kind of value a result holds, through the CSV writer and the
    JSON normal form: integers exactly, floats by ``.17g`` (which reads back
    to the same bits) with -0.0 as ``0``, strings as they are."""
    values = [3, 2.0, 0.1, 1e15, 2**53, math.nan, math.inf, -math.inf, -0.0,
              np.int64(-7), np.uint8(1), np.float64(1 / 3), np.float32(0.5),
              np.True_, 1e-300, "birth"]
    tokens = ["3", "2", "0.10000000000000001", "1000000000000000",
              "9007199254740992", "nan", "inf", "-inf", "0", "-7", "1",
              "0.33333333333333331", "0.5", "1", "1e-300", "birth"]
    text = _csv(["value"], ([v] for v in values))
    assert text == "value\n" + "\n".join(tokens) + "\n"
    assert _csv(["a", "b"], [(0.5, "x"), (1, 2.5)]) == "a,b\n0.5,x\n1,2.5\n"
    assert _csv(["time"], []) == "time\n"
    for value, token in zip(values, tokens):
        if isinstance(value, float) and math.isfinite(value) and value != 0.0:
            assert float(token) == value

    plain = _plain({1: (np.int64(2), np.float64(0.5)),
                    "arr": np.arange(4).reshape(2, 2),
                    "flag": np.bool_(True),
                    "nested": [np.zeros(2), {"x": np.float32(0.25)}],
                    "none": None, "text": "ok", "neg": -0.0})
    assert plain == {"1": [2, 0.5], "arr": [[0, 1], [2, 3]], "flag": True,
                     "nested": [[0.0, 0.0], {"x": 0.25}], "none": None, "text": "ok",
                     "neg": -0.0}
    leaves = [plain["1"][0], plain["1"][1], plain["arr"][0][0], plain["flag"],
              plain["nested"][0][0], plain["nested"][1]["x"]]
    assert [type(v) for v in leaves] == [int, float, int, bool, float, float]
