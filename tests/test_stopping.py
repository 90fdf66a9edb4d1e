import math

import numpy as np
import pytest

from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    FixedRadius,
    GrainSpec,
    arm_probability,
    crossing,
)
from poissonlab.process import (
    BoxWindow,
    CellIntensity,
    DiscreteWindow,
    HomogeneousIntensity,
    PointConfig,
    ProcessSpec,
    RadiusMarks,
)
from poissonlab.rng import stream
from poissonlab.stopping import (
    _BLOCK,
    BrokenNearestPointOracle,
    ConstantRegionSet,
    LineSeed,
    SphereSeed,
    ball_growth_ctdt,
    component_exploration,
    entry_time,
    expected_revealed_points,
    markov_property_check,
    nonattainable_fixture,
    probe_grid,
    randomize,
    restrict_to,
    revealment,
    verify_stopping_axiom,
)

WINDOW = BoxWindow((-1.0, -1.0), (1.0, 1.0))
SPEC = ProcessSpec(HomogeneousIntensity(1.0), WINDOW)
R_W = 1.0 / math.sqrt(math.pi)  # lambda(W) = 1 disk


def disk_region(p):
    return np.linalg.norm(np.atleast_2d(p), axis=1) <= R_W


def make_ctdt():
    return ball_growth_ctdt(disk_region, (0.0, 0.0))


def crossing_setup(n=6, gamma=0.36):
    model = BooleanModel(gamma, GrainSpec("ball", FixedRadius(1.0)), k=1)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    process = ProcessSpec(
        HomogeneousIntensity(gamma, RadiusMarks(FixedRadius(1.0))), rect.pad(1.0)
    )
    return model, rect, process


# -- entry times ---------------------------------------------------------------


def test_entry_time_examples():
    ctdt = make_ctdt()
    empty = PointConfig.empty(WINDOW)
    assert entry_time(ctdt, np.array([0.4, 0.0]), empty, 1e-6, 2.0) == pytest.approx(
        0.4, abs=1e-5
    )
    blocked = PointConfig(WINDOW, np.array([[0.3, 0.0]]))  # tau = 0.3 < 0.4
    assert entry_time(ctdt, np.array([0.4, 0.0]), blocked, 1e-6, 2.0) == math.inf
    assert entry_time(ctdt, np.array([0.0, 0.0]), empty, 1e-6, 2.0) == 0.0


def test_entry_time_consistency_and_monotone_step():
    ctdt = make_ctdt()
    rng = stream(101)
    for i in range(40):
        cfg = SPEC.sample(stream(102, i))
        x = WINDOW.sample_uniform(rng, 1)[0]
        t_star = entry_time(ctdt, x, cfg, 1e-4, 2.0)
        grid = np.linspace(0.0, 2.0, 41)
        member = np.array([bool(ctdt.membership_at(t, x, cfg)[0]) for t in grid])
        # single upward jump
        assert np.all(np.diff(member.astype(int)) >= 0)
        for t in grid:
            assert member[np.searchsorted(grid, t)] == (t_star <= t + 1e-4) or abs(
                t - t_star
            ) < 2e-4


def test_entry_time_detects_non_monotone():
    class Bad:
        def membership_at(self, t, xs, cfg):
            xs = np.atleast_2d(xs)
            return np.full(len(xs), 0.5 < t < 1.0)

    with pytest.raises(RuntimeError):
        entry_time(Bad(), np.zeros(2), PointConfig.empty(WINDOW), 1e-3, 2.0)


# -- stopping axiom -------------------------------------------------------------


def test_axiom_constant_and_ball_growth():
    const = ConstantRegionSet(lambda p: np.atleast_2d(p)[:, 0] > 0)
    assert verify_stopping_axiom(const, SPEC, 300, 50, stream(103)).passed
    term = make_ctdt().terminal()
    assert verify_stopping_axiom(term, SPEC, 1000, 100, stream(104)).passed


def test_axiom_broken_oracle_fails_with_counterexample():
    rep = verify_stopping_axiom(BrokenNearestPointOracle(), SPEC, 200, 50, stream(105))
    assert not rep.passed
    assert len(rep.failures) > 0


def test_axiom_nonattainable_fixture():
    fx = nonattainable_fixture((0.5, 0.3, 0.2))
    dspec = ProcessSpec(CellIntensity((0.5, 0.3, 0.2)), DiscreteWindow(3))
    assert verify_stopping_axiom(fx, dspec, 1500, 3, stream(106)).passed


# -- ball growth terminal -------------------------------------------------------


def test_ball_growth_determines_empty_indicator():
    term = make_ctdt().terminal()
    f = lambda cfg: 1.0 if cfg.count_in(disk_region) == 0 else 0.0
    for i in range(2000):
        cfg = SPEC.sample(stream(107, i))
        assert f(cfg) == f(restrict_to(term, cfg))


def test_ball_growth_terminal_membership_formula():
    term = make_ctdt().terminal()
    rng = stream(108)
    for i in range(200):
        cfg = SPEC.sample(stream(109, i))
        x = WINDOW.sample_uniform(rng, 1)[0]
        got = bool(term.contains(x, cfg)[0])
        # x in Z_infty iff no configuration point of W strictly inside B(0, |x|)
        if cfg.size:
            pts = cfg.points[disk_region(cfg.points)]
            d = np.linalg.norm(pts, axis=1) if len(pts) else np.array([])
            want = not np.any(d < np.linalg.norm(x))
        else:
            want = True
        assert got == want


def test_ball_growth_tau_infinite_outside_w():
    ctdt = make_ctdt()
    cfg = PointConfig(WINDOW, np.array([[0.9, 0.9]]))  # outside the disk
    assert ctdt.tau(cfg) == math.inf


# -- revealment and revealed-point identity --------------------------------------


def test_revealment_extremes():
    grid = probe_grid(WINDOW, 0.25)
    whole = ConstantRegionSet(lambda p: np.ones(len(np.atleast_2d(p)), bool))
    none = ConstantRegionSet(lambda p: np.zeros(len(np.atleast_2d(p)), bool))
    assert revealment(whole, SPEC, grid, 50, stream(110)).delta == 1.0
    assert revealment(none, SPEC, grid, 50, stream(111)).delta == 0.0


def test_revealment_line_exploration_decreases_with_n():
    deltas = {}
    for n, samples in ((10, 900), (40, 600)):
        model, rect, process = crossing_setup(n)
        family = lambda s: component_exploration(model, rect, LineSeed(0, s))
        rz = randomize(family, lambda rng: float(rng.uniform(0.0, float(n))))
        grid = probe_grid(rect, 1.0)
        rep = revealment(rz, process, grid, samples, stream(112, n), grid_spacing=1.0)
        deltas[n] = (rep.delta, rep.delta_se)
    gap = deltas[10][0] - deltas[40][0]
    assert gap > 2.0 * (deltas[10][1] + deltas[40][1])


def test_expected_revealed_points():
    grid = probe_grid(WINDOW, 0.05)
    half = ConstantRegionSet(lambda p: np.atleast_2d(p)[:, 0] > 0)  # lambda = 2
    res = expected_revealed_points(half, SPEC, 3000, stream(313), grid)
    assert res["passed"]
    assert abs(res["e_eta"] - 2.0) <= 3 * res["e_eta_se"]
    term = make_ctdt().terminal()
    res2 = expected_revealed_points(term, SPEC, 2500, stream(114), grid)
    assert res2["passed"]
    none = ConstantRegionSet(lambda p: np.zeros(len(np.atleast_2d(p)), bool))
    res3 = expected_revealed_points(none, SPEC, 200, stream(115), grid)
    assert res3["e_eta"] == 0.0 and res3["e_lam"] == 0.0


# -- Markov property --------------------------------------------------------------


def region_functionals():
    return [
        ("total", lambda c: float(c.size)),
        ("in_disk", lambda c: float(c.count_in(disk_region))),
        ("right", lambda c: float(c.count_in(lambda p: np.atleast_2d(p)[:, 0] > 0.0))),
        (
            "min_norm",
            lambda c: float(np.linalg.norm(np.atleast_2d(c.points), axis=1).min())
            if c.size
            else 9.0,
        ),
        ("band", lambda c: float(c.count_in(lambda p: np.abs(np.atleast_2d(p)[:, 1]) < 0.4))),
    ]


def test_markov_constant_region():
    const = ConstantRegionSet(lambda p: np.atleast_2d(p)[:, 0] > 0)
    rep = markov_property_check(const, SPEC, region_functionals(), 1500, stream(116))
    assert rep.passed


def test_markov_exploration_straddling_region():
    model, rect, process = crossing_setup(6)
    expl = component_exploration(model, rect, LineSeed(0, 3.0))
    fns = [
        (
            "straddle",
            lambda c: float(
                c.count_in(lambda p: np.abs(np.atleast_2d(p)[:, 0] - 3.0) < 1.5)
            ),
        ),
        ("total", lambda c: float(c.size)),
    ]
    rep = markov_property_check(expl, process, fns, 1200, stream(117))
    assert rep.passed


def test_markov_nonattainable_fixture():
    fx = nonattainable_fixture((0.5, 0.3, 0.2))
    dspec = ProcessSpec(CellIntensity((0.5, 0.3, 0.2)), DiscreteWindow(3))
    fns = [
        ("total", lambda c: float(c.size)),
        ("cell0", lambda c: float(c.counts()[0])),
        ("cell1", lambda c: float(c.counts()[1])),
        ("cell2_pos", lambda c: float(c.counts()[2] > 0)),
        ("occupied_cells", lambda c: float(np.count_nonzero(c.counts()))),
    ]
    rep = markov_property_check(fx, dspec, fns, 2000, stream(132))
    assert rep.passed


def test_markov_broken_fixture_fails():
    rep = markov_property_check(
        BrokenNearestPointOracle(),
        SPEC,
        region_functionals()[:3],
        1200,
        stream(118),
    )
    assert not rep.passed


# -- component exploration ---------------------------------------------------------


def test_exploration_empty_and_single_ball():
    model, rect, process = crossing_setup(8)
    expl = component_exploration(model, rect, LineSeed(0, 4.0))
    empty = PointConfig.empty(rect.pad(1.0), ("radius",))
    probes = np.array([[4.5, 1.0], [5.5, 1.0]])
    assert list(expl.contains(probes, empty)) == [True, False]
    one = PointConfig(rect.pad(1.0), np.array([[4.8, 2.0]]), {"radius": np.array([1.0])})
    # grain touches the line; its 1-dilation includes points within 2 of center
    assert bool(expl.contains(np.array([[6.7, 2.0]]), one)[0])
    assert not bool(expl.contains(np.array([[7.1, 2.0]]), one)[0])


def test_exploration_determines_crossing():
    model, rect, process = crossing_setup(6)
    expl = component_exploration(model, rect, LineSeed(0, 3.0))
    f = lambda cfg: crossing(BooleanWorld(cfg, model, rect))
    for i in range(600):
        cfg = process.sample(stream(119, i))
        assert f(cfg) == f(restrict_to(expl, cfg))


def test_exploration_axiom_sphere_seed():
    model = BooleanModel(0.36, GrainSpec("ball", FixedRadius(1.0)), k=1)
    rect = BoxWindow((-3.0, -3.0), (3.0, 3.0))
    process = ProcessSpec(
        HomogeneousIntensity(0.36, RadiusMarks(FixedRadius(1.0))), rect.pad(1.0)
    )
    expl = component_exploration(model, rect, SphereSeed(1.5))
    assert verify_stopping_axiom(expl, process, 400, 60, stream(123)).passed


# -- block loops against per-trial loops -------------------------------------------


def per_trial_axiom(oracle, process, trials, probes, rng):
    """The axiom check one trial at a time: mu, psi and the probes drawn in
    that order, and every membership asked on its own."""
    failures = []
    for trial in range(trials):
        mu = process.sample(rng)
        psi = process.sample(rng)
        xs = process.window.sample_uniform(rng, probes)
        inside = restrict_to(oracle, mu)
        outside = psi.take(~oracle.contains(psi.points, mu)) if psi.size else psi
        composite = PointConfig(
            mu.window, np.concatenate([inside.points, outside.points]),
            {k: np.concatenate([inside.marks[k], outside.marks[k]]) for k in mu.marks})
        flips = oracle.contains(xs, mu) != oracle.contains(xs, composite)
        failures += [(trial, xs[b]) for b in np.flatnonzero(flips)]
    return failures


def per_sample_revealment(oracle, process, probes, samples, rng, randomized):
    counts = np.zeros(len(probes))
    for _ in range(samples):
        eta = process.sample(rng)
        member = oracle.member(oracle.draw(rng)) if randomized else oracle
        counts += member.contains(probes, eta)
    return counts / samples


def block_loop_cases():
    model, rect, process = crossing_setup(6)
    box = BoxWindow((-3.0, -3.0), (3.0, 3.0))
    sphere_process = ProcessSpec(process.intensity, box.pad(1.0))
    family = randomize(lambda s: component_exploration(model, rect, LineSeed(0, s)),
                       lambda rng: float(rng.uniform(0.0, 6.0)))
    return {
        "line": (component_exploration(model, rect, LineSeed(0, 3.0)), process, rect),
        "sphere": (component_exploration(model, box, SphereSeed(1.5)), sphere_process,
                   box),
        "randomized-line": (family, process, rect),
        "broken": (BrokenNearestPointOracle(), SPEC, WINDOW),
    }


@pytest.mark.parametrize("name", ["line", "sphere", "randomized-line", "broken"])
def test_block_loops_draw_and_answer_as_a_per_trial_loop(name):
    """Over two full blocks and a partial one, the block loops leave the
    generator where a per-trial loop leaves it (its state holds arrays, so
    it is compared by repr), with the same failures and the same
    revealment probabilities bit for bit."""
    oracle, process, rect = block_loop_cases()[name]
    count = 2 * _BLOCK + 3
    randomized = name == "randomized-line"
    grid = probe_grid(rect, 0.5)
    got_rng, want_rng = stream(131, 0), stream(131, 0)
    if not randomized:
        got = verify_stopping_axiom(oracle, process, count, 40, got_rng).failures
        want = per_trial_axiom(oracle, process, count, 40, want_rng)
        assert [(t, x.tolist()) for t, x in got] == [(t, x.tolist()) for t, x in want]
        assert bool(got) == (name == "broken")
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
    rep = revealment(oracle, process, grid, count, got_rng)
    want = per_sample_revealment(oracle, process, grid, count, want_rng, randomized)
    assert np.array_equal(rep.probabilities, want) and 0.0 < rep.delta
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


# -- randomized stopping sets --------------------------------------------------------


def test_randomize_degenerate_equals_base():
    model, rect, process = crossing_setup(6)
    base = component_exploration(model, rect, LineSeed(0, 3.0))
    rz = randomize(lambda s: component_exploration(model, rect, LineSeed(0, s)),
                   lambda rng: 3.0)
    cfg = process.sample(stream(124))
    probes = rect.sample_uniform(stream(125), 100)
    y = rz.draw(stream(126))
    assert np.array_equal(rz.contains(probes, cfg, y), base.contains(probes, cfg))


def test_randomize_two_point_law_average():
    model, rect, process = crossing_setup(6)
    fam = lambda s: component_exploration(model, rect, LineSeed(0, s))
    grid = probe_grid(rect, 1.5)
    # estimate each member's probe table, then the two-point mixture
    reps = {}
    for j, s in enumerate((2.0, 4.0)):
        reps[s] = revealment(fam(s), process, grid, 400, stream(127, j)).probabilities
    rz = randomize(fam, lambda rng: 2.0 if rng.random() < 0.5 else 4.0)
    mix = revealment(rz, process, grid, 800, stream(128)).probabilities
    want = 0.5 * (reps[2.0] + reps[4.0])
    se = np.sqrt(want * (1 - want) / 400 + 1e-9)
    assert np.all(np.abs(mix - want) <= 4 * se + 0.05)


def test_randomized_line_delta_bounded_by_arm_integral():
    # delta_n <= (2 / n) integral_0^n P(Arm_{r,s}) ds  (with Arm = 1 for s <= r)
    n = 8
    model, rect, process = crossing_setup(n)
    fam = lambda s: component_exploration(model, rect, LineSeed(0, s))
    rz = randomize(fam, lambda rng: float(rng.uniform(0.0, n)))
    grid = probe_grid(rect, 0.5)
    rep = revealment(rz, process, grid, 500, stream(129), grid_spacing=0.5)
    s_grid = np.linspace(0.0, n, 9)
    arm_vals = []
    for j, s in enumerate(s_grid):
        if s <= 1.0:
            arm_vals.append((1.0, 0.0))
        else:
            arm_vals.append(arm_probability(model, 1.0, s, 250, (130, j)))
    integral = np.trapezoid([a for a, _ in arm_vals], s_grid)
    bound = 2.0 / n * integral
    se_int = 2.0 / n * np.trapezoid([s for _, s in arm_vals], s_grid)
    assert rep.delta <= bound + 3.0 * (rep.delta_se + se_int)


# -- non-attainable fixture ------------------------------------------------------------


def test_fixture_case_table():
    fx = nonattainable_fixture((0.5, 0.3, 0.2))
    cases = {
        (1, 0, 0): [True, True, False],
        (0, 0, 0): [True, True, True],
        (2, 1, 3): [True, True, True],
        (0, 0, 1): [True, False, True],
        (0, 2, 0): [False, True, True],
    }
    for counts, want in cases.items():
        assert list(fx.cells_mask(np.array(counts))) == want


def test_fixture_positive_miss_probability():
    fx = nonattainable_fixture((0.5, 0.3, 0.2))
    dspec = ProcessSpec(CellIntensity((0.5, 0.3, 0.2)), DiscreteWindow(3))
    miss = np.zeros(3)
    for i in range(3000):
        eta = dspec.sample(stream(131, i))
        miss += fx.lam_in_cells(eta.counts()) == 0.0
    assert np.all(miss > 0)


def test_fixture_rejects_zero_mass():
    with pytest.raises(ValueError):
        nonattainable_fixture((0.5, 0.0, 0.2))
