"""Stream identity of the lean samplers.

``ProcessSpec.sample``, ``dynamics.resample``, ``chaos._lambda_draw`` and
``PointConfig.add_points`` skip numpy's broadcasting ``uniform``, the scaled
process and the public constructor.  Each must draw exactly what the plain
formulation below draws, bit for bit and in the same order, and leave the
generator in the same state: the next draw after it is compared too, and
so is the mean of every Poisson count.  The
plain formulation is the one every pinned result was produced with:

* locations ``rng.uniform(lo, hi, size=(n, d))`` on boxes and
  ``rng.choice(cells, p=masses / sum)`` on cells;
* ``resample``: the thinning mask (no draw when nothing is kept back),
  then a fresh sample of the process with its intensity scaled by
  ``1 - e^-t``, appended after the survivors.

The identity rests on numpy computing ``uniform`` as ``lo + (hi - lo) *
next_double`` without a fused multiply-add; this test, not that reasoning,
is the guard.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab.chaos import _lambda_draw
from poissonlab.dynamics import resample
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
)
from poissonlab.rng import stream


def plain_locations(intensity, window, rng, n):
    if isinstance(window, BoxWindow):
        lo, hi = np.asarray(window.lo), np.asarray(window.hi)
        return rng.uniform(lo, hi, size=(n, window.dim))
    if n == 0:  # choice draws nothing for no points
        return np.empty(0, dtype=np.int64)
    masses = np.asarray(intensity.masses, dtype=float)
    return rng.choice(window.num_cells, size=n, p=masses / masses.sum()).astype(np.int64)


def plain_mass(intensity, window):
    if isinstance(window, BoxWindow):
        volume = float(np.prod(np.asarray(window.hi) - np.asarray(window.lo)))
        mass = intensity.gamma * volume
        if isinstance(intensity.marks, ConfettiMarks):
            mass *= intensity.marks.horizon
        return mass
    return float(sum(intensity.masses))


def plain_sample(intensity, window, rng):
    """(points, marks) of one Poisson draw: count, locations, marks."""
    n = int(rng.poisson(plain_mass(intensity, window)))
    pts = plain_locations(intensity, window, rng, n)
    marks = intensity.marks.sample(rng, n) if intensity.marks is not None else {}
    return pts, marks


def plain_scaled(intensity, factor):
    if isinstance(intensity, HomogeneousIntensity):
        return replace(intensity, gamma=intensity.gamma * factor)
    return replace(intensity, masses=tuple(m * factor for m in intensity.masses))


def plain_resample(config, t, process, rng):
    keep = math.exp(-t)
    pts, marks = config.points, config.marks
    if keep != 1.0 and config.size:
        mask = rng.random(config.size) < keep
        pts, marks = pts[mask], {k: v[mask] for k, v in marks.items()}
    new_pts, new_marks = plain_sample(plain_scaled(process.intensity, 1.0 - keep),
                                      process.window, rng)
    return (np.concatenate([pts, new_pts]),
            {k: np.concatenate([v, new_marks[k]]) for k, v in marks.items()})


class Recorder:
    """A generator that also records the mean of every Poisson count drawn:
    a mean one ulp off almost never changes the count, so the outputs alone
    would not show it."""

    def __init__(self, rng):
        self._rng = rng
        self.means = []

    def poisson(self, lam, size=None):
        self.means.append(float(lam).hex())
        return self._rng.poisson(lam, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def streams(seed):
    """Two recording copies of ``stream(seed)``."""
    return Recorder(stream(seed)), Recorder(stream(seed))


def same(a, b) -> bool:
    """Equal shape, dtype and bytes (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_config(config, pts, marks) -> bool:
    return (same(config.points, pts) and config.marks.keys() == marks.keys()
            and all(same(config.marks[k], marks[k]) for k in marks))


def frozen(config) -> bool:
    return not config.points.flags.writeable and not any(
        v.flags.writeable for v in config.marks.values())


# bounds from -1e4 to 1e4, boxes from 1e-3 wide up to the whole range
edge = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
width = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)
radius_law = st.one_of(
    st.builds(FixedRadius, st.floats(0.1, 2.0)),
    st.floats(0.1, 1.0).flatmap(
        lambda lo: st.builds(UniformRadius, st.just(lo), st.floats(lo + 0.01, 3.0))),
    st.builds(ParetoRadius, st.floats(0.1, 1.0), st.floats(2.5, 4.0)),
)
mark_law = st.one_of(
    st.none(),
    st.builds(RadiusMarks, radius_law),
    st.builds(ConfettiMarks, st.floats(0.0, 1.0), st.floats(0.1, 3.0), radius_law,
              radius_law),
)


@st.composite
def box_processes(draw):
    dim = draw(st.integers(1, 3))
    lo = [draw(edge) for _ in range(dim)]
    hi = [min(l + draw(width), 2e4) for l in lo]
    window = BoxWindow(tuple(lo), tuple(hi))
    marks = draw(mark_law)
    # expected counts from 0 (gamma = 0) to about 200
    target = draw(st.sampled_from([0.0, 0.05, 1.0, 3.0, 40.0, 200.0]))
    scale = marks.horizon if isinstance(marks, ConfettiMarks) else 1.0
    gamma = target / (window.volume * scale)
    return ProcessSpec(HomogeneousIntensity(gamma, marks), window)


@st.composite
def cell_processes(draw):
    masses = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6))
    if sum(masses) == 0:
        masses[0] = 1.0
    marks = draw(st.one_of(st.none(), st.builds(RadiusMarks, radius_law)))
    return ProcessSpec(CellIntensity(tuple(masses), marks), DiscreteWindow(len(masses)))


processes = st.one_of(box_processes(), cell_processes())


@settings(max_examples=300, deadline=None)
@given(st.tuples(edge, edge), st.tuples(width, width), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
def test_sample_uniform_is_numpy_uniform(lo, span, which, seed):
    window = BoxWindow(lo, tuple(min(l + w, 2e4) for l, w in zip(lo, span)))
    n = (0, 1, 257)[which]
    got_rng, want_rng = stream(seed), stream(seed)
    got = window.sample_uniform(got_rng, n)
    assert same(got, plain_locations(None, window, want_rng, n))
    assert got_rng.random() == want_rng.random()


@settings(max_examples=300, deadline=None)
@given(processes, st.integers(0, 2**32 - 1))
def test_sample_and_lambda_draw_match_plain_draws(process, seed):
    got_rng, want_rng = streams(seed)
    config = process.sample(got_rng)
    pts, marks = plain_sample(process.intensity, process.window, want_rng)
    assert same_config(config, pts, marks) and frozen(config)
    assert config.window == process.window

    x, x_marks = _lambda_draw(process, got_rng)
    want_x = plain_locations(process.intensity, process.window, want_rng, 1)
    assert same(x, want_x)
    if process.intensity.marks is None:
        assert x_marks is None
    else:
        want = process.intensity.marks.sample(want_rng, 1)
        assert x_marks.keys() == want.keys()
        assert all(same(x_marks[k], want[k]) for k in want)

    grown = config.add_points(x, x_marks)
    assert same(grown.points, np.concatenate([pts, want_x]))
    for k in marks:
        assert same(grown.marks[k], np.concatenate([marks[k], x_marks[k]]))
    assert frozen(grown) and grown.size == config.size + 1
    assert got_rng.means == want_rng.means
    assert got_rng.random() == want_rng.random()


@settings(max_examples=300, deadline=None)
@given(processes, st.sampled_from([1e-300, 0.08, 0.5, 2.5, 40.0]),
       st.integers(0, 2**32 - 1))
def test_resample_matches_thin_then_scaled_sample(process, t, seed):
    base = process.sample(stream(seed, 1))
    got_rng, want_rng = streams(seed)
    got = resample(base, t, process, got_rng)
    pts, marks = plain_resample(base, t, process, want_rng)
    assert same_config(got, pts, marks) and frozen(got)
    assert got.window == process.window
    assert got_rng.means == want_rng.means
    assert got_rng.random() == want_rng.random()


def test_resample_of_empty_and_single_point_configs():
    """The counts 0 and 1 explicitly: nothing to thin, and one mask draw."""
    process = ProcessSpec(HomogeneousIntensity(0.7, RadiusMarks(FixedRadius(1.0))),
                          BoxWindow((-9999.5, 0.25), (-9990.0, 3.0)))
    empty = PointConfig.empty(process.window, ("radius",))
    one = PointConfig(process.window, np.array([[-9995.0, 1.0]]), {"radius": np.ones(1)})
    for config in (empty, one):
        for seed in range(20):
            got_rng, want_rng = streams(seed)
            got = resample(config, 0.5, process, got_rng)
            assert same_config(got, *plain_resample(config, 0.5, process, want_rng))
            assert got_rng.means == want_rng.means
            assert got_rng.random() == want_rng.random()


def test_cell_process_without_mass_samples_empty_configs():
    """All-zero cell masses give no points and draw only the count, also
    through a resample so short that e^-t rounds to 1 (no newcomer mass)."""
    process = ProcessSpec(CellIntensity((0.0, 0.0)), DiscreteWindow(2))
    assert process.sample(stream(3)).size == 0
    full = ProcessSpec(CellIntensity((1.0, 2.0)), DiscreteWindow(2))
    base = full.sample(stream(4))
    assert resample(base, 1e-300, full, stream(5)).size == base.size
