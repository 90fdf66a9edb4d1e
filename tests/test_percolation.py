import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    ConfettiModel,
    FixedRadius,
    GrainSpec,
    ParetoRadius,
    UniformRadius,
    arm_event,
    arm_probability,
    confetti_duality_check,
    confetti_duality_counts,
    confetti_world_from_config,
    crossing,
    crossing_probability,
    estimate_critical,
    one_arm,
    one_arm_decay_fit,
    one_arm_event,
    required_confetti_horizon,
    sample_boolean_config,
    sample_boolean_world,
    sample_confetti_world,
    threshold_scan,
    truncate_radii,
    truncation_flips,
)
from poissonlab.process import BoxWindow, PointConfig, _at_most, _bernoulli_se
from poissonlab.rng import replicate, stream

from grain_graph import grain_labels

DISK1 = GrainSpec("ball", FixedRadius(1.0))


def boolean(gamma):
    return BooleanModel(gamma, DISK1, k=1)


def confetti(p):
    return ConfettiModel(p, DISK1, DISK1)


def world_from(points, radii, model, rect):
    cfg = PointConfig(
        rect.pad(model.grain.max_radius or 0.0),
        np.asarray(points, dtype=float),
        {"radius": np.asarray(radii, dtype=float)},
    )
    return BooleanWorld(cfg, model, rect)


# -- grain-graph components -----------------------------------------------------


def test_component_labels_basics():
    model = BooleanModel(1.0, DISK1, k=1)
    rect = BoxWindow((0.0, 0.0), (20.0, 2.0))
    # pairs (0, 1) and (3, 4) overlap; grain 2 touches neither
    pts = [[1.0, 1.0], [2.5, 1.0], [9.0, 1.0], [12.0, 1.0], [13.5, 1.0]]
    w = world_from(pts, [1.0] * 5, model, rect)
    lab = grain_labels(w)
    assert lab[0] == lab[1] and lab[3] == lab[4]
    assert len({lab[0], lab[2], lab[3]}) == 3
    assert w.component_mask(np.array([1])).tolist() == [1, 1, 0, 0, 0]
    assert w.component_mask(np.array([2, 4])).tolist() == [0, 0, 1, 1, 1]
    assert not w.component_mask(np.array([], dtype=int)).any()
    assert w.connected(np.array([0]), np.array([1]))
    assert not w.connected(np.array([0, 2]), np.array([3]))
    # a grain at x = 10.5 overlaps grains 2 and 3 and joins their components
    joined = world_from(pts + [[10.5, 1.0]], [1.0] * 6, model, rect)
    assert joined.connected(np.array([2]), np.array([4]))
    assert not joined.connected(np.array([0]), np.array([4]))


# -- world construction ------------------------------------------------------------


def test_two_overlapping_balls_one_component():
    model = BooleanModel(1.0, DISK1, k=1)
    rect = BoxWindow((0.0, 0.0), (3.0, 1.0))
    w = world_from([[0.5, 0.5], [2.0, 0.5]], [1.0, 1.0], model, rect)
    lab = grain_labels(w)
    assert lab[0] == lab[1]
    far = world_from([[0.0, 0.5], [2.5, 0.5]], [1.0, 1.0], model, rect)
    lab = grain_labels(far)
    assert lab[0] != lab[1]


def test_k2_lens_raster_single_component():
    model = BooleanModel(1.0, DISK1, k=2)
    rect = BoxWindow((0.0, 0.0), (3.0, 1.0))
    apart = world_from([[0.4, 0.5], [2.6, 0.5]], [1.0, 1.0], model, rect)
    assert not apart.occupancy_raster(0.05).any()  # disjoint: nothing 2-covered
    # distance 1.5: the doubly covered region is a lens, one raster component
    w2 = world_from([[0.75, 0.5], [2.25, 0.5]], [1.0, 1.0], model, rect)
    occ2 = w2.occupancy_raster(0.05)
    labels, num = ndimage.label(occ2, structure=np.ones((3, 3)))
    assert num == 1


def test_is_k_covered():
    model = BooleanModel(1.0, DISK1, k=2)
    rect = BoxWindow((0.0, 0.0), (3.0, 1.0))
    w = world_from([[1.0, 0.5], [1.8, 0.5]], [1.0, 1.0], model, rect)
    assert len(w.grains_covering(np.array([1.4, 0.5]))) >= model.k
    assert len(w.grains_covering(np.array([0.05, 0.5]))) < model.k
    empty = world_from(np.empty((0, 2)), [], model, rect)
    assert len(empty.grains_covering(np.array([0.5, 0.5]))) < model.k


def test_confetti_first_arrival_rule():
    model = ConfettiModel(0.5, DISK1, DISK1, horizon=50.0)
    rect = BoxWindow((0.0, 0.0), (1.0, 1.0))
    cfg = PointConfig(
        rect.pad(1.0),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        {
            "birth_time": np.array([1.0, 2.0]),
            "color": np.array([0, 1], dtype=np.uint8),
            "radius": np.array([1.0, 1.0]),
        },
    )
    assert confetti_world_from_config(cfg, model, rect, 0.1).black.all()
    swapped = PointConfig(
        rect.pad(1.0),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        {
            "birth_time": np.array([2.0, 1.0]),
            "color": np.array([0, 1], dtype=np.uint8),
            "radius": np.array([1.0, 1.0]),
        },
    )
    assert not confetti_world_from_config(swapped, model, rect, 0.1).black.any()


def test_confetti_uncovered_raises_with_required_horizon():
    model = ConfettiModel(0.5, DISK1, DISK1, horizon=1e-6)
    rect = BoxWindow((0.0, 0.0), (4.0, 4.0))
    with pytest.raises(RuntimeError, match="horizon"):
        sample_confetti_world(model, rect, 0.25, stream(401))
    assert required_confetti_horizon(model, 0.25) > 0
    for horizon in (0.0, -1.0):  # no time for a first chunk: rejected up front
        with pytest.raises(ValueError, match="horizon must be positive"):
            ConfettiModel(0.5, DISK1, DISK1, horizon=horizon)


# -- crossing ------------------------------------------------------------------------


def test_crossing_examples():
    model = BooleanModel(1.0, DISK1, k=1)
    rect = BoxWindow((0.0, 0.0), (3.0, 1.0))
    empty = world_from(np.empty((0, 2)), [], model, rect)
    assert not crossing(empty)
    huge = BooleanModel(1.0, GrainSpec("ball", FixedRadius(5.0)), k=1)
    assert crossing(world_from([[1.5, 0.5]], [5.0], huge, rect))
    chain = world_from(
        [[0.0, 0.5], [1.5, 0.5], [3.0, 0.5]], [1.0, 1.0, 1.0], model, rect
    )
    assert crossing(chain)
    broken = world_from([[0.0, 0.5], [3.0, 0.5]], [1.0, 1.0], model, rect)
    assert not crossing(broken)
    # brute-force raster verification of both fixtures
    from poissonlab.percolation import _labels_cross

    for world, crossed in ((chain, True), (broken, False)):
        labels, _ = ndimage.label(world.occupancy_raster(0.05), np.ones((3, 3)))
        assert _labels_cross(labels, 0) == crossed


def _matched_routes(world, model, pad_rect, h):
    """Crossing by the grain graph and by the raster, with identical grain
    sets and boundary conventions (coverage of the rect's edge columns)."""
    from poissonlab.percolation import _cell_centers

    w = BooleanWorld(world.config, model, pad_rect)
    xs, ys = _cell_centers(world.rect, h)
    lab = grain_labels(w)
    la, lb = set(), set()
    for y in ys:
        for g in w.grains_covering(np.array([xs[0], y])):
            la.add(lab[g])
        for g in w.grains_covering(np.array([xs[-1], y])):
            lb.add(lab[g])
    exact = len(la & lb) > 0
    occ = w.occupancy_raster(h)
    labels, _ = ndimage.label(occ, structure=np.ones((3, 3)))
    off = int(round((world.rect.lo[0] - pad_rect.lo[0]) / h))
    first = labels[off, off:-off]
    last = labels[-off - 1, off:-off]
    raster = len(np.intersect1d(first[first > 0], last[last > 0])) > 0
    return w, exact, raster


def test_k1_graph_matches_fine_raster_on_500_worlds():
    # Components of the grain intersection graph vs fine-raster labeling
    # (h = r/20).  Residual disagreements must be raster-resolution
    # artifacts: a sub-resolution gap between distinct graph components,
    # and refining the raster must resolve at least half of them.
    model = BooleanModel(0.45, DISK1, k=1)
    rect = BoxWindow((0.0, 0.0), (5.0, 5.0))
    pad_rect = rect.pad(1.0)
    h = 1.0 / 20.0
    mismatched = []
    for i in range(500):
        world = sample_boolean_world(model, rect, stream(402, i))
        w, exact, raster = _matched_routes(world, model, pad_rect, h)
        if exact != raster:
            mismatched.append((i, w))
    assert len(mismatched) <= 10  # >= 98% agreement
    still = 0
    for i, w in mismatched:
        lab = grain_labels(w)
        gaps = [
            np.linalg.norm(w.points[a] - w.points[b]) - w.radii[a] - w.radii[b]
            for a in range(w.n)
            for b in range(a + 1, w.n)
            if lab[a] != lab[b]
        ]
        assert min(gaps) < 1.5 * h  # attributable to raster resolution
        world = sample_boolean_world(model, rect, stream(402, i))
        _, exact, raster = _matched_routes(world, model, pad_rect, h / 4.0)
        still += exact != raster
    assert still <= len(mismatched) // 2


def test_crossing_monotone_under_thinning():
    from poissonlab.process import thin

    model = BooleanModel(0.5, DISK1, k=1)
    rect = BoxWindow((0.0, 0.0), (6.0, 6.0))
    for i in range(120):
        cfg = sample_boolean_config(model, rect, stream(403, i))
        sub = thin(cfg, 0.7, stream(404, i))
        full = crossing(BooleanWorld(cfg, model, rect))
        thinned = crossing(BooleanWorld(sub, model, rect))
        assert not (thinned and not full)


def test_scaling_covariance():
    # doubling lengths (window and radius) while dividing gamma by 2^d
    base = BooleanModel(0.5, DISK1, k=1)
    rect1 = BoxWindow((0.0, 0.0), (6.0, 6.0))
    scaled = BooleanModel(0.125, GrainSpec("ball", FixedRadius(2.0)), k=1)
    rect2 = BoxWindow((0.0, 0.0), (12.0, 12.0))
    p1, s1 = crossing_probability(base, rect1, 900, (405,))
    p2, s2 = crossing_probability(scaled, rect2, 900, (406,))
    assert abs(p1 - p2) <= 3 * (s1 + s2)


# -- arm / one-arm events --------------------------------------------------------------


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
def test_boolean_model_rejects_a_gamma_not_finite_and_nonnegative(gamma):
    with pytest.raises(ValueError, match=f"gamma must be finite and >= 0, got {gamma}"):
        BooleanModel(gamma, GrainSpec("ball", FixedRadius(1.0)))


def test_boolean_model_rejects_box_grains():
    with pytest.raises(ValueError, match="Boolean grains are balls, got kind 'box'"):
        BooleanModel(0.5, GrainSpec("box", FixedRadius(1.0)))


def test_arm_event_validation_and_convention():
    model = BooleanModel(0.3, DISK1, k=1)
    rect = BoxWindow((-5.0, -5.0), (5.0, 5.0))
    w = sample_boolean_world(model, rect, stream(407))
    assert arm_event(w, 2.0, 1.0)  # s <= r convention: event holds
    with pytest.raises(ValueError):
        one_arm_event(w, 50.0)  # sphere does not fit the world
    with pytest.raises(ValueError):
        arm_probability(model, 2.0, 1.0, 10, (408,))


def test_theta_small_gamma_vanishes():
    model = BooleanModel(0.01, DISK1, k=1)
    est, se = one_arm(model, 4.0, 400, (409,))
    assert est <= 0.05


def test_harris_ordering_spot_check():
    # P(Arm_{r,s}) <= theta_{s-r} / b_r within Monte Carlo error, where b_r
    # is the probability that the sphere of radius 2r is covered and
    # connected to the origin.
    model = BooleanModel(0.5, DISK1, k=1)
    r, s = 1.0, 5.0
    arm, arm_se = arm_probability(model, r, s, 800, (410,))
    theta, theta_se = one_arm(model, s - r, 800, (411,))
    b, b_se = _b_r(model, r, 800)
    bound = theta / max(b - 3 * b_se, 1e-3)
    assert arm <= bound + 3 * (arm_se + theta_se)


def _b_r(model, r, samples):
    rect = BoxWindow((-2 * r - 1, -2 * r - 1), (2 * r + 1, 2 * r + 1))
    angles = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    ring = 2 * r * np.column_stack([np.cos(angles), np.sin(angles)])
    hits = 0
    for i in range(samples):
        w = sample_boolean_world(model, rect, stream(412, i))
        covered = all(len(w.grains_covering(p)) >= 1 for p in ring)
        hits += covered and one_arm_event(w, 2 * r)
    p = hits / samples
    return p, math.sqrt(max(p * (1 - p), 1e-9) / samples)


# -- scans and critical estimation --------------------------------------------------------


def test_threshold_scan_monotone_and_csv():
    scan = threshold_scan(boolean, np.linspace(0.2, 0.6, 5), 8.0, 150, seed=414)
    assert np.all(scan.estimates >= 0) and np.all(scan.estimates <= 1)
    jumps = np.diff(scan.estimates)
    tol = 3 * np.hypot(scan.ses[1:], scan.ses[:-1])
    assert np.all(jumps >= -tol)
    csv = scan.to_csv()
    assert csv.splitlines()[0] == "param,n,estimate,se,samples,seed"
    assert len(csv.strip().splitlines()) == 6
    with pytest.raises(ValueError):
        threshold_scan(boolean, np.array([0.5, 0.4]), 8.0, 10, seed=1)


def test_one_arm_decay_fit_quality():
    model = BooleanModel(0.17, DISK1, k=1)
    fit = one_arm_decay_fit(model, np.array([3, 5, 7, 9]), 6000, (415,))
    assert fit["slope"] < 0
    assert fit["r2"] > 0.9


def test_estimate_critical_self_consistency():
    def prob_at_n(n):
        rect = BoxWindow((0.0, 0.0), (float(n), float(n)))

        def prob(gamma, samples, ridx):
            return crossing_probability(boolean(gamma), rect, samples, (416, n, ridx))

        return prob

    est10, ci10 = estimate_critical(prob_at_n(10), 0.2, 0.6, 0.03, base_samples=120)
    est20, ci20 = estimate_critical(prob_at_n(20), 0.2, 0.6, 0.03, base_samples=120)
    assert abs(est10 - est20) <= ci10 + ci20


def test_estimate_critical_invalid_bracket():
    def flat(p, samples, ridx):
        return 0.9, 0.01

    with pytest.raises(ValueError):
        estimate_critical(flat, 0.1, 0.9, 0.05)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_estimate_critical_needs_a_positive_finite_tolerance(tolerance):
    def no_draw(p, samples, ridx):
        raise AssertionError("an estimate was made before the tolerance check")

    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        estimate_critical(no_draw, 0.2, 0.6, tolerance)


@pytest.mark.parametrize("lo, hi", [(0.6, 0.2), (0.4, 0.4), (math.nan, 0.6)])
def test_estimate_critical_needs_a_finite_increasing_bracket(lo, hi):
    def no_draw(p, samples, ridx):
        raise AssertionError("an estimate was made before the bracket check")

    with pytest.raises(ValueError, match="the bracket must be finite with lo < hi"):
        estimate_critical(no_draw, lo, hi, 0.05)


# -- k >= 2 raster events ---------------------------------------------------------------

SIDE = 3.0  # k = 2 worlds live on [-SIDE, SIDE]^2


@st.composite
def k2_worlds(draw):
    """k = 2 worlds on [-SIDE, SIDE]^2: ball grains of fixed or uniform
    radii in pairs, the second near the first one's centre, so that
    doubly covered patches appear.  Optionally every grain covering the
    origin cell's centre is dropped (an empty origin cell), or every grain
    within one raster cell of the rect's boundary (faces that touch only
    background)."""
    if draw(st.booleans()):
        law = FixedRadius(draw(st.sampled_from([0.5, 0.75, 1.0])))
        h = law.r / 8.0
    else:
        law = UniformRadius(draw(st.sampled_from([0.5, 0.75])), 1.5)
        h = law.lo / 8.0
    model = BooleanModel(1.0, GrainSpec("ball", law), k=2)
    rect = BoxWindow((-SIDE, -SIDE), (SIDE, SIDE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.just(0), st.integers(30, 100)))
    pts = rect.pad(model.grain.max_radius).sample_uniform(rng, n)
    pts = np.concatenate([pts, pts + rng.uniform(-0.5, 0.5, (n, 2))])
    radii = law.sample(rng, len(pts))
    if draw(st.booleans()):
        # the origin cell's centre, as the one-arm event finds it
        xs = -SIDE + (np.arange(round(2 * SIDE / h)) + 0.5) * h
        d = np.abs(pts - xs[np.argmin(np.abs(xs))])
        far = np.hypot(d[:, 0], d[:, 1])
        pts, radii = pts[far > radii], radii[far > radii]
    if draw(st.booleans()):
        inside = np.abs(pts).max(axis=1) + radii < SIDE - h
        pts, radii = pts[inside], radii[inside]
    world = BooleanWorld(
        PointConfig(rect.pad(model.grain.max_radius), pts, {"radius": radii}), model, rect
    )
    s = draw(st.sampled_from([1.0, 2.0, SIDE]))
    r = draw(st.sampled_from([0.0, 0.5, 1.5])) * s / SIDE
    return world, h, r, s


def reference_raster_events(world, h, r, s):
    """Both crossings, the one-arm and the arm event from the 8-adjacency
    labels of the occupancy raster: two cell sets are linked when their
    sets of nonzero labels intersect."""
    labels, _ = ndimage.label(world.occupancy_raster(h), np.ones((3, 3)))
    nx, ny = labels.shape
    xs = world.rect.lo[0] + (np.arange(nx) + 0.5) * h
    ys = world.rect.lo[1] + (np.arange(ny) + 0.5) * h

    def linked(a, b):
        a, b = labels[a], labels[b]
        return np.intersect1d(a[a > 0], b[b > 0]).size > 0

    origin = np.zeros_like(labels, dtype=bool)
    origin[np.argmin(np.abs(xs)), np.argmin(np.abs(ys))] = True
    ring = np.abs(np.hypot(xs[:, None], ys[None, :]) - s) <= h
    linf = np.maximum(np.abs(xs)[:, None], np.abs(ys)[None, :])
    inner = (np.abs(xs)[:, None] <= r) & (np.abs(ys)[None, :] <= r)
    return (
        linked(np.s_[0, :], np.s_[-1, :]),
        linked(np.s_[:, 0], np.s_[:, -1]),
        linked(origin, ring),
        linked(inner, linf >= s),
    )


@settings(max_examples=150, deadline=None)
@given(k2_worlds())
def test_k2_raster_events_match_label_set_reference(case):
    world, h, r, s = case
    got = (
        crossing(world, 0), crossing(world, 1), one_arm_event(world, s),
        arm_event(world, r, s),
    )
    want = reference_raster_events(world, h, r, s)
    for name, value in zip(("cross-0", "cross-1", "one-arm", "arm"), want):
        event(f"{name} {value}")
    assert got == want


# -- confetti -----------------------------------------------------------------------------


def test_confetti_duality_holds_on_samples():
    rect = BoxWindow((0.0, 0.0), (6.0, 6.0))
    for j, p in enumerate((0.3, 0.5, 0.7)):
        m = confetti(p)
        for i in range(60):
            w = sample_confetti_world(m, rect, 0.125, stream(417, j, i))
            assert confetti_duality_check(w)


UNIT_BOX = GrainSpec("box", FixedRadius(1.0))


def _crosses_with_probability_half(model):
    """Whether the crossing frequency of 2,000 confetti worlds on the 10 x 10
    square (h = 0.1) passes the two-sided 1/2 check of criterion 7, and the
    number of duality XOR violations."""
    samples = 2_000
    rect = BoxWindow((0.0, 0.0), (10.0, 10.0))
    hits, violations = confetti_duality_counts(model, rect, 0.1, samples, (99, 8))
    p_hat = hits / samples
    return _at_most(abs(p_hat - 0.5), 0.0, _bernoulli_se(p_hat, samples)), violations


def test_confetti_unit_boxes_cross_with_probability_half():
    """The paper's confetti claim holds for any bounded grain invariant under
    pi/2 rotation and reflection, such as Hirsch's boxes: at p = 1/2 black
    crosses with probability 1/2 (1,013 of these 2,000 worlds)."""
    assert _crosses_with_probability_half(ConfettiModel(0.5, UNIT_BOX, UNIT_BOX)) == (
        True, 0)


def test_confetti_boxes_against_balls_fail_the_half_check():
    """Black unit boxes against white unit balls are not exchangeable: black
    covers more per grain and crosses far more often than 1/2 (1,499 of
    these 2,000 worlds), so the check of the test above can fail."""
    assert _crosses_with_probability_half(ConfettiModel(0.5, UNIT_BOX, DISK1)) == (
        False, 0)


def test_confetti_black_increasing():
    model = ConfettiModel(0.5, DISK1, DISK1)
    rect = BoxWindow((0.0, 0.0), (6.0, 6.0))
    rng = stream(418)
    for i in range(150):
        w = sample_confetti_world(model, rect, 0.125, stream(419, i))
        base = crossing(w)
        x = rect.pad(1.0).sample_uniform(rng, 1)[0]
        t = float(rng.uniform(0.0, 2.0))
        for color, check in ((0, "never_destroys"), (1, "never_creates")):
            cfg = w.config
            extra = PointConfig(
                cfg.window,
                np.vstack([cfg.points, x]),
                {
                    "birth_time": np.append(cfg.marks["birth_time"], t),
                    "color": np.append(cfg.marks["color"], np.uint8(color)),
                    "radius": np.append(cfg.marks["radius"], 1.0),
                },
            )
            w2 = confetti_world_from_config(extra, model, rect, 0.125)
            got = crossing(w2)
            if color == 0:
                assert got >= base  # adding black never destroys
            else:
                assert got <= base  # adding white never creates


def test_confetti_repaint_matches_sampled():
    model = ConfettiModel(0.4, DISK1, DISK1)
    rect = BoxWindow((0.0, 0.0), (5.0, 5.0))
    for i in range(40):
        w = sample_confetti_world(model, rect, 0.1, stream(420, i))
        w2 = confetti_world_from_config(w.config, model, rect, 0.1)
        assert np.array_equal(w.black, w2.black)


# -- heavy tails ----------------------------------------------------------------------------


def test_truncate_radii_bounds_and_validation():
    law = ParetoRadius(0.5, 3.5)
    model = BooleanModel(0.4, GrainSpec("ball", law), k=1)
    rect = BoxWindow((0.0, 0.0), (16.0, 16.0))
    cfg = sample_boolean_config(model, rect, stream(421), r_split=16.0**0.8)
    kept, bound = truncate_radii(cfg, model, 16, 0.2)
    assert bound > 0
    assert np.all(kept.marks["radius"] <= 16.0**0.8)
    with pytest.raises(ValueError):
        truncate_radii(cfg, model, 16, 0.9)  # epsilon above alpha/(2+alpha)
    # n -> infinity: bound vanishes
    big_rect = BoxWindow((0.0, 0.0), (1e6, 1e6))
    cfg_small = PointConfig(big_rect, np.empty((0, 2)), {"radius": np.empty(0)})
    _, tail = truncate_radii(cfg_small, model, 1e6, 0.2)
    assert tail / 1e12 < 1e-12  # vanishing relative to window area


def test_truncate_bounded_noop():
    model = BooleanModel(0.5, GrainSpec("ball", UniformRadius(0.2, 0.8)), k=1)
    rect = BoxWindow((0.0, 0.0), (8.0, 8.0))
    cfg = sample_boolean_config(model, rect, stream(422))
    kept, bound = truncate_radii(cfg, model, 8, 0.2)  # r_n = 8^0.8 > 0.8
    assert bound == 0.0 and kept.size == cfg.size


@pytest.mark.parametrize("shape, n, epsilon, samples, seed", [
    (3.5, 32, 0.2, 10, 14),  # the acceptance model: no flips at this count
    (2.5, 8, 0.15, 40, 431),  # heavier tail on a small square: flips occur
    (2.5, 8, 0.15, 40, 432),
])
def test_truncation_flips_matches_inline_loop(shape, n, epsilon, samples, seed):
    model = BooleanModel(0.4, GrainSpec("ball", ParetoRadius(0.5, shape)), k=1)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    flips, bound = 0, 0.0
    for i in range(samples):
        cfg = sample_boolean_config(
            model, rect, stream(seed, i), r_split=float(n) ** (1.0 - epsilon)
        )
        kept, bound = truncate_radii(cfg, model, n, epsilon)
        flips += crossing(BooleanWorld(cfg, model, rect)) != crossing(
            BooleanWorld(kept, model, rect)
        )
    got = truncation_flips(model, n, epsilon, samples, (seed,))
    assert got == (flips, bound)
    assert type(got[0]) is int and type(got[1]) is float


# Each index-addressed estimator against a loop written out over
# stream(*path, i): `replicate` hands replica i exactly that stream.


def test_replicate_hands_replica_i_its_own_stream():
    def draw(rng):
        return rng.random(2).tolist()

    assert replicate((5, 2), 4, draw) == [draw(stream(5, 2, i)) for i in range(4)]
    assert replicate((5,), 0, draw) == []


CONFETTI = ConfettiModel(0.5, DISK1, DISK1)
SQUARE4 = BoxWindow((0.0, 0.0), (4.0, 4.0))
SQUARE6 = BoxWindow((0.0, 0.0), (6.0, 6.0))
BOX4 = BoxWindow((-4.0, -4.0), (4.0, 4.0))  # [-3, 3]^2 padded by the radius


def inline_frequency(path, samples, event):
    hits = 0
    for i in range(samples):
        hits += event(stream(*path, i))
    p = hits / samples
    return p, math.sqrt(max(p * (1.0 - p), 1e-12) / samples)


def inline_duality(path, samples):
    hits = bad = 0
    for i in range(samples):
        w = sample_confetti_world(CONFETTI, SQUARE4, 0.25, stream(*path, i))
        hits += crossing(w)
        bad += not confetti_duality_check(w)
    return hits, bad


def inline_reach(model, s_max, path, samples):
    rect = BoxWindow((-s_max - 1.0, -s_max - 1.0), (s_max + 1.0, s_max + 1.0))
    reach = np.zeros(samples)
    for i in range(samples):
        w = sample_boolean_world(model, rect, stream(*path, i))
        origin = w.grains_covering(np.zeros(2))
        if len(origin):
            member = w.component_mask(origin)
            dist = np.linalg.norm(w.points[member], axis=1) + w.radii[member]
            reach[i] = dist.max()
    return reach


def inline_scan(build, grid, n, samples, seed, event, resolution=None):
    rect = BoxWindow((0.0, 0.0), (n, n))
    rows = []
    for j, param in enumerate(grid):
        model = build(param)
        if event == "cross":
            def hit(rng):
                if isinstance(model, ConfettiModel):
                    w = sample_confetti_world(model, rect, resolution, rng)
                else:
                    w = sample_boolean_world(model, rect, rng)
                return crossing(w)
        else:
            box = BoxWindow((-n - 1.0, -n - 1.0), (n + 1.0, n + 1.0))

            def hit(rng):
                return one_arm_event(sample_boolean_world(model, box, rng), n)
        rows.append(inline_frequency((seed, j), samples, hit))
    return [e for e, _ in rows], [s for _, s in rows]


def scan_values(scan):
    return scan.estimates.tolist(), scan.ses.tolist()


ESTIMATOR_CASES = {
    "crossing-boolean": (
        lambda: crossing_probability(boolean(0.4), SQUARE6, 12, (440, 3)),
        lambda: inline_frequency((440, 3), 12, lambda rng: crossing(
            sample_boolean_world(boolean(0.4), SQUARE6, rng))),
    ),
    "crossing-confetti": (
        lambda: crossing_probability(CONFETTI, SQUARE4, 6, (441,), resolution=0.25),
        lambda: inline_frequency((441,), 6, lambda rng: crossing(
            sample_confetti_world(CONFETTI, SQUARE4, 0.25, rng))),
    ),
    "one-arm": (
        lambda: one_arm(boolean(0.5), 3.0, 12, (442, 1)),
        lambda: inline_frequency((442, 1), 12, lambda rng: one_arm_event(
            sample_boolean_world(boolean(0.5), BOX4, rng), 3.0)),
    ),
    "arm": (
        lambda: arm_probability(boolean(0.3), 1.0, 3.0, 12, (443,)),
        lambda: inline_frequency((443,), 12, lambda rng: arm_event(
            sample_boolean_world(boolean(0.3), BOX4, rng), 1.0, 3.0)),
    ),
    "confetti-duality": (
        lambda: confetti_duality_counts(CONFETTI, SQUARE4, 0.25, 6, (444, 2)),
        lambda: inline_duality((444, 2), 6),
    ),
    "one-arm-decay": (
        lambda: one_arm_decay_fit(boolean(0.3), np.array([1.0, 2.0, 3.0]), 30, (445,))[
            "theta"].tolist(),
        lambda: [float((inline_reach(boolean(0.3), 3.0, (445,), 30) >= s).mean())
                 for s in (1.0, 2.0, 3.0)],
    ),
    "scan-cross-boolean": (
        lambda: scan_values(threshold_scan(boolean, [0.3, 0.5], 5.0, 8, 446)),
        lambda: inline_scan(boolean, [0.3, 0.5], 5.0, 8, 446, "cross"),
    ),
    "scan-cross-confetti": (
        lambda: scan_values(
            threshold_scan(confetti, [0.4, 0.6], 4.0, 4, 447, resolution=0.25)),
        lambda: inline_scan(confetti, [0.4, 0.6], 4.0, 4, 447, "cross", 0.25),
    ),
    "scan-one-arm-boolean": (
        lambda: scan_values(
            threshold_scan(boolean, [0.3, 0.5], 3.0, 8, 448, event="one_arm")),
        lambda: inline_scan(boolean, [0.3, 0.5], 3.0, 8, 448, "one_arm"),
    ),
}


@pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
def test_estimator_matches_inline_loop(case):
    estimate, inline = ESTIMATOR_CASES[case]
    assert estimate() == inline()


def test_one_arm_scan_on_confetti_fails_before_any_draw(monkeypatch):
    def no_draw(*path):
        raise AssertionError("a replica was drawn")

    monkeypatch.setattr("poissonlab.rng.stream", no_draw)
    with pytest.raises(ValueError, match="one_arm scans need a Boolean model"):
        threshold_scan(confetti, [0.4, 0.6], 4.0, 4, 449, event="one_arm")


def test_pareto_tail_sampler_consistency():
    # the exact tail sampler produces big grains at the Mecke rate
    law = ParetoRadius(0.5, 3.5)
    model = BooleanModel(0.4, GrainSpec("ball", law), k=1)
    rect = BoxWindow((0.0, 0.0), (10.0, 10.0))
    r_split = 3.0
    counts = []
    for i in range(4000):
        cfg = sample_boolean_config(model, rect, stream(423, i), r_split=r_split)
        counts.append(int(np.count_nonzero(cfg.marks["radius"] > r_split)))
    t0 = law.tail_moment(0, r_split)
    t1 = law.tail_moment(1, r_split)
    t2 = law.tail_moment(2, r_split)
    expected = model.gamma * (100 * t0 + 2 * 20 * t1 + math.pi * t2)
    mean = np.mean(counts)
    se = np.std(counts) / math.sqrt(len(counts))
    assert abs(mean - expected) <= 3 * se + 1e-3
