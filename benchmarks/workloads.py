"""The four benchmark workloads.

Each workload is a scaled-down kernel of an expensive acceptance criterion
and calls the library through its public estimators, so a change behind an
estimator shows up without editing the benchmark. The timed phase runs
blocks of replicas: one call of each estimator the workload times (for
confetti, a loop of library calls), where each replica is one Monte Carlo
sample. The reference checks run afterwards on inputs drawn under their own
key.

Every input comes from ``numpy.random.SeedSequence(seed, spawn_key=(workload,
purpose, ...))``, never from ``poissonlab.rng.stream``: those keys are linear
in the path, and the library may change how it derives them.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import numpy as np

import reference
from poissonlab.chaos import chaos_weights_mehler, poincare_audit
from poissonlab.percolation import (
    BooleanModel,
    BooleanWorld,
    ConfettiModel,
    FixedRadius,
    GrainSpec,
    confetti_duality_check,
    crossing,
    sample_confetti_world,
)
from poissonlab.process import BoxWindow, HomogeneousIntensity, ProcessSpec, RadiusMarks
from poissonlab.stopping import (
    LineSeed,
    SphereSeed,
    component_exploration,
    probe_grid,
    randomize,
    revealment,
    verify_stopping_axiom,
)

# Close to the unit-disk critical intensity (about 0.359), pinned rather than
# re-estimated by bisection so that set-up stays small.
GAMMA = 0.36
RADIUS = 1.0
TIMED, REFERENCE, WARMUP = 0, 1, 2


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def crossing_setup(n: int):
    """Unit disks at intensity GAMMA sampled on the n x n window padded by
    one radius, as acceptance criteria 5 and 12 build them."""
    model = BooleanModel(GAMMA, GrainSpec("ball", FixedRadius(RADIUS)), k=1)
    rect = BoxWindow((0.0, 0.0), (float(n), float(n)))
    process = ProcessSpec(
        HomogeneousIntensity(GAMMA, RadiusMarks(FixedRadius(RADIUS))), rect.pad(RADIUS))
    return model, rect, process


def digest(parts: list) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


class TracedOracle:
    """Times ``contains`` and passes every other attribute to the oracle."""

    def __init__(self, oracle, tracer):
        self._oracle = oracle
        self._tracer = tracer

    def contains(self, xs, config):
        tr = self._tracer
        tr.note("process.config.points", config.size)
        with tr.span("stopping.contains"):
            out = self._oracle.contains(xs, config)
        tr.note("stopping.contains.probes", len(out))
        tr.note("stopping.contains.inside", np.count_nonzero(out))
        return out

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class Workload:
    """Set-up, timed blocks and reference checks of one workload.

    Subclasses set ``name`` and the sizes below; ``TINY`` overrides the sizes
    for the benchmark's own smoke tests. Constructing a workload is its
    set-up, warm-up included. With a tracer, the functional and the oracles
    are timed wrappers and every estimator call is a span.
    """

    name = ""
    index = -1
    block_replicas = 1
    warmup_replicas = 1
    TINY: dict = {}

    def __init__(self, seed: int, tracer=None, tiny: bool = False):
        self.seed = seed
        self.tracer = tracer
        if tiny:
            self.__dict__.update(self.TINY)
        self.setup()
        self.block(self.rng(WARMUP), self.warmup_replicas)

    def rng(self, purpose: int, *key: int) -> np.random.Generator:
        return stream(self.seed, self.index, purpose, *key)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def params(self) -> dict:
        """The workload's sizes, for the results file."""
        return {k: getattr(self, k) for k in dir(self)
                if not k.startswith("_") and k not in ("TINY", "index", "seed")
                and isinstance(getattr(self, k), (int, float, str, tuple))}

    def setup(self) -> None:
        raise NotImplementedError

    def block(self, rng: np.random.Generator, replicas: int) -> tuple[int, list]:
        """Run ``replicas`` replicas; return failed replicas and the outputs
        that go into the digest."""
        raise NotImplementedError

    def references(self) -> list[tuple[str, bool]]:
        """Independent checks as (label, passed)."""
        raise NotImplementedError


class _CrossingFunctional(Workload):
    """Shared set-up of the two workloads on the crossing functional."""

    n = 10
    reference_configs = 1

    def setup(self) -> None:
        self.model, self.rect, self.process = crossing_setup(self.n)
        self.f = self.traced_functional() if self.tracer else self.functional()

    def functional(self):
        model, rect = self.model, self.rect

        def f(cfg):
            return 1.0 if crossing(BooleanWorld(cfg, model, rect)) else 0.0

        return f

    def traced_functional(self):
        model, rect, tr = self.model, self.rect, self.tracer

        def f(cfg):
            tr.note("process.config.points", cfg.size)
            with tr.span("percolation.world"):
                world = BooleanWorld(cfg, model, rect)
            tr.note("percolation.world.grains", world.n)
            with tr.span("percolation.crossing"):
                hit = crossing(world)
            tr.note("percolation.crossing.true", hit)
            return 1.0 if hit else 0.0

        return f

    def references(self) -> list[tuple[str, bool]]:
        rng = self.rng(REFERENCE)
        checks = []
        for i in range(self.reference_configs):
            cfg = self.process.sample(rng)
            checks.append((f"crossing[{i}]",
                           bool(self.f(cfg)) == reference.crossing(cfg, self.rect)))
        return checks


class CrossingLarge(_CrossingFunctional):
    """Criterion 5's n = 40 leg: Mehler chaos weights of the crossing
    functional. One replica is one base configuration and its nine
    resampled evaluations."""

    name = "crossing-large"
    index = 0
    n = 40
    times = tuple(np.geomspace(0.08, 2.5, 9))
    k_max = 4
    block_replicas = 8
    warmup_replicas = 2
    reference_configs = 40
    TINY = {"n": 10, "block_replicas": 2, "reference_configs": 3}

    def block(self, rng, replicas):
        with self.span("chaos.chaos_weights_mehler"):
            spec = chaos_weights_mehler(self.f, self.process, self.times, replicas,
                                        rng, k_max=self.k_max)
        return 0, [spec.weights, spec.ses, [spec.mean]]


class PoincareSmall(_CrossingFunctional):
    """Poincare audit of the crossing functional on the n = 10 window. One
    replica is one audit sample: two draws, one added point, three crossing
    evaluations. The verdict is checked on a larger reference audit: a
    200-sample block sees no pivotal point about once in 150 blocks, and its
    verdict then fails by chance."""

    name = "poincare-small"
    index = 1
    n = 10
    block_replicas = 200
    warmup_replicas = 2
    reference_configs = 200
    reference_audit_samples = 1000
    TINY = {"block_replicas": 100, "reference_configs": 5,
            "reference_audit_samples": 300}

    def block(self, rng, replicas):
        with self.span("chaos.poincare_audit"):
            rep = poincare_audit(self.f, self.process, replicas, rng)
        return 0, [[rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se]]

    def references(self) -> list[tuple[str, bool]]:
        rep = poincare_audit(self.f, self.process, self.reference_audit_samples,
                             self.rng(REFERENCE, 1))
        return super().references() + [("poincare_verdict", rep.passed)]


class StoppingSuite(Workload):
    """Criterion 12's exploration oracles and the revealment kernel. One
    replica is one axiom trial for each oracle and one revealment sample."""

    name = "stopping-suite"
    index = 2
    n_axiom = 6
    n_revealment = 20
    probes = 200
    spacing = 0.5
    block_replicas = 16
    warmup_replicas = 1
    reference_configs = 10
    TINY = {"n_revealment": 6, "block_replicas": 2, "reference_configs": 2}

    def setup(self) -> None:
        model, rect, self.line_process = crossing_setup(self.n_axiom)
        box = BoxWindow((-3.0, -3.0), (3.0, 3.0))
        self.sphere_process = ProcessSpec(self.line_process.intensity, box.pad(RADIUS))
        self.line = self.wrap(component_exploration(model, rect, LineSeed(0, self.n_axiom / 2)))
        self.sphere = self.wrap(component_exploration(model, box, SphereSeed(1.5)))
        model_r, self.rect_r, self.process_r = crossing_setup(self.n_revealment)
        self.family = randomize(
            lambda y: self.wrap(component_exploration(model_r, self.rect_r, LineSeed(0, y))),
            lambda rng: float(rng.uniform(0.0, float(self.n_revealment))))
        self.grid_r = probe_grid(self.rect_r, self.spacing)

    def wrap(self, oracle):
        return TracedOracle(oracle, self.tracer) if self.tracer else oracle

    def block(self, rng, replicas):
        failed_trials: set[int] = set()
        counts = []
        for oracle, process in ((self.line, self.line_process),
                                (self.sphere, self.sphere_process)):
            with self.span("stopping.verify_stopping_axiom"):
                rep = verify_stopping_axiom(oracle, process, replicas, self.probes, rng)
            if self.tracer:
                self.tracer.note("stopping.verify_stopping_axiom.failures",
                                 len(rep.failures))
            failed_trials.update(t for t, _ in rep.failures)
            counts.append(len(rep.failures))
        with self.span("stopping.revealment"):
            rev = revealment(self.family, self.process_r, self.grid_r, replicas, rng,
                             grid_spacing=self.spacing)
        return len(failed_trials), [counts, rev.probabilities]

    def references(self) -> list[tuple[str, bool]]:
        rng = self.rng(REFERENCE)
        checks = []
        for i in range(self.reference_configs):
            y = float(rng.uniform(0.0, float(self.n_revealment)))
            cases = (
                ("line", self.line, self.line_process),
                ("sphere", self.sphere, self.sphere_process),
                ("family", self.family.member(y), self.process_r),
            )
            for label, oracle, process in cases:
                cfg = process.sample(rng)
                grid = probe_grid(oracle.rect, self.spacing)
                want = reference.exploration(cfg, oracle.rect, oracle.seed,
                                             oracle.dilation, grid)
                got = oracle.contains(grid, cfg)
                checks.append((f"{label}[{i}]", bool(np.array_equal(got, want))))
        return checks


class ConfettiDuality(Workload):
    """Criterion 7's kernel: symmetric confetti at p = 1/2 on the 10 x 10
    window at h = 0.1. One replica samples a world, decides its crossing and
    checks the duality XOR, which must hold on every replica."""

    name = "confetti-duality"
    index = 3
    n = 10
    h = 0.1
    p = 0.5
    block_replicas = 10
    warmup_replicas = 1
    reference_worlds = 6
    TINY = {"n": 4, "block_replicas": 2, "reference_worlds": 2}

    def setup(self) -> None:
        disk = GrainSpec("ball", FixedRadius(RADIUS))
        self.model = ConfettiModel(self.p, disk, disk)
        self.rect = BoxWindow((0.0, 0.0), (float(self.n), float(self.n)))

    def sample(self, rng):
        with self.span("percolation.sample_confetti_world"):
            world = sample_confetti_world(self.model, self.rect, self.h, rng)
        if self.tracer:
            self.tracer.note("percolation.sample_confetti_world.grains", world.config.size)
            self.tracer.note("percolation.sample_confetti_world.cells", world.black.size)
        return world

    def block(self, rng, replicas):
        failed = hits = 0
        tr = self.tracer
        for _ in range(replicas):
            world = self.sample(rng)
            with self.span("percolation.crossing"):
                hit = crossing(world)
            with self.span("percolation.confetti_duality_check"):
                ok = confetti_duality_check(world)
            if tr:
                tr.note("percolation.crossing.true", hit)
            hits += hit
            failed += not ok
        return failed, [[hits]]

    def repaint(self, world):
        return reference.confetti_black(world.config, self.rect, self.h)

    def references(self) -> list[tuple[str, bool]]:
        rng = self.rng(REFERENCE)
        checks = []
        for i in range(self.reference_worlds):
            world = sample_confetti_world(self.model, self.rect, self.h, rng)
            checks.append((f"repaint[{i}]",
                           bool(np.array_equal(world.black, self.repaint(world)))))
        return checks


WORKLOADS = {w.name: w for w in (CrossingLarge, PoincareSmall, StoppingSuite,
                                 ConfettiDuality)}
