"""Reproducible experiment driver.

Subcommands: sample, stopping, chaos, dynamics, perc, acceptance, run.
All randomness funnels through --seed; outputs are deterministic given
(arguments, seed) and carry a header with the resolved parameters and
package version.  Each command takes only fixtures of its own kind
(sample, stopping, chaos, dynamics or perc).  Bad input, such as a fixture
of another kind, an argument that argparse rejects or a size too large to
allocate, ends with one "error: ..." line and exit status 2.
Environment: POISSONLAB_OUTDIR prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, acceptance, chaos, dynamics, fixtures
from .percolation import (
    BoxWindow,
    confetti_duality_counts,
    crossing_probability,
    estimate_critical,
    threshold_scan,
)
from .process import _csv, _plain, config_to_csv
from .rng import stream
from .stopping import (
    BrokenNearestPointOracle,
    nonattainable_fixture,
    probe_grid,
    revealment,
    verify_stopping_axiom,
)


def _outpath(path: str) -> Path:
    base = os.environ.get("POISSONLAB_OUTDIR", "")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _provenance() -> dict:
    """Versions of the package and of the numerical libraries behind a result."""
    return {
        "poissonlab": __version__, "numpy": np.__version__, "scipy": scipy.__version__
    }


def _header(args: dict) -> str:
    fields = {k: v for k, v in args.items() if v is not None}
    payload = json.dumps({**fields, "provenance": _provenance()}, sort_keys=True)
    return f"# poissonlab {__version__} {payload}\n"


def _write(path: str, result: str | dict, fields: dict | None = None) -> None:
    """Write CSV text under the header of its ``fields``, or a dict as JSON
    in the normal form of ``process._plain`` with the provenance stamp."""
    if isinstance(result, dict):
        stamped = _plain({**result, "provenance": _provenance()})
        text = json.dumps(stamped, indent=2, sort_keys=True)
    else:
        text = _header(fields) + result
    target = _outpath(path)
    target.write_text(text)
    print(f"wrote {target}")


# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    process = fixtures.sample_process(fixtures.REGISTRY[args.fixture])
    config = process.sample(stream(args.seed))
    _write(args.output, config_to_csv(config), {"fixture": args.fixture, "seed": args.seed})
    return 0


def cmd_stopping_audit(args) -> int:
    fx = fixtures.REGISTRY[args.fixture]
    seed = args.seed
    report: dict = {"fixture": args.fixture, "seed": seed}
    if args.fixture in ("ball-growth", "broken-nearest"):
        window, process, _, tree = fixtures.empty_space_setup(fx["area"])
        oracle = tree if args.fixture == "ball-growth" else BrokenNearestPointOracle()
        grid = probe_grid(window, 0.1)
        axiom = verify_stopping_axiom(
            oracle, process, args.trials, args.probes, stream(seed, 0)
        )
        rev = revealment(oracle, process, grid, args.samples, stream(seed, 1), 0.1)
        report["axiom"] = axiom.to_dict()
        report["revealment"] = {"delta": rev.delta, "delta_se": rev.delta_se}
    elif args.fixture == "line-exploration":
        n, gamma = fx["n"], fx["gamma"]
        _, _, process, oracle = fixtures.line_exploration_setup(n, gamma)
        axiom = verify_stopping_axiom(
            oracle, process, args.trials, args.probes, stream(seed, 0)
        )
        rev = fixtures.line_revealment(n, gamma, args.samples, stream(seed, 1))
        report["axiom"] = axiom.to_dict()
        report["revealment"] = {"delta": rev.delta, "delta_se": rev.delta_se}
    else:  # nonattainable
        oracle = nonattainable_fixture(fx["masses"])
        process = fixtures.sample_process(fx)
        axiom = verify_stopping_axiom(
            oracle, process, args.trials, 3, stream(seed, 0)
        )
        report["axiom"] = axiom.to_dict()
    _write(args.output, report)
    return 0 if report["axiom"]["passed"] == (args.fixture != "broken-nearest") else 1


def cmd_chaos_audit(args) -> int:
    fx = fixtures.REGISTRY[args.fixture]
    seed = args.seed
    name = args.fixture
    if name in ("poincare-empty-space", "osss-empty-space", "sqrt-osss-empty-space"):
        window, process, f, tree = fixtures.empty_space_setup(fx["area"])
        if name == "poincare-empty-space":
            rep = chaos.poincare_audit(f, process, args.samples, stream(seed, 0))
        elif name == "osss-empty-space":
            rep = chaos.osss_audit(
                f, tree, process, args.samples, stream(seed, 0), binary=True
            )
        else:
            rev = revealment(
                tree, process, probe_grid(window, 0.1),
                max(200, args.samples // 10), stream(seed, 1), 0.1,
            )
            rep = chaos.sqrt_osss_audit(
                f, rev.delta, rev.delta_se, process, args.samples, stream(seed, 0)
            )
        payload = rep.to_dict()
    elif name == "mehler-count":
        process, f, times = fixtures.counting_setup(fx["mass"])
        spec = chaos.chaos_weights_mehler(
            f, process, times, args.samples, stream(seed, 0), k_max=6
        )
        payload = spec.to_dict()
    elif name == "chaos-3cell-exact":
        space, f_counts = fixtures.three_cell_setup(fx["masses"])
        payload = chaos.chaos_weights_exact(f_counts, space, k_max=8).to_dict()
    else:  # cond-moment-nonattainable
        space, oracle, u1 = fixtures.cond_moment_setup(fx["masses"])
        payload = chaos.cond_moment_audit(u1, 1, oracle.cells_mask, space)
    _write(args.output, payload)
    passed = payload.get("passed", True)
    print(f"{name}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_dynamics_run(args) -> int:
    process, _ = fixtures.dynamics_setup(args.fixture)
    horizon = fixtures.REGISTRY[args.fixture]["horizon"]
    path = dynamics.simulate_path(process, horizon, stream(args.seed))
    _write(args.output, path.to_csv(), {"fixture": args.fixture, "seed": args.seed})
    return 0


def cmd_dynamics_exceptional(args) -> int:
    process, f = fixtures.dynamics_setup(args.fixture)
    horizon = fixtures.REGISTRY[args.fixture]["horizon"]
    path = dynamics.simulate_path(process, horizon, stream(args.seed))
    times = dynamics.exceptional_times(path, f)
    text = _csv(["time"], ([t] for t in times))
    _write(args.output, text, {"fixture": args.fixture, "seed": args.seed})
    print(f"{len(times)} exceptional times on [0, {horizon}]")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise ValueError(f"--grid must be lo:hi:num, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--grid bounds must be finite, got {spec!r}")
    if num < 1:
        raise ValueError(f"--grid needs at least 1 value, got {num}")
    return np.linspace(lo, hi, num)


def _perc_model(fx: dict):
    """Builder of the fixture's model at a scanned parameter (p for confetti,
    gamma for Boolean), the raster resolution (None: the exact grain graph)
    and the default bracket of the critical-point bisection."""
    if fx["model"] == "confetti":
        build = lambda p: fixtures.confetti_model(fx, p)
        return build, fx.get("radius", 1.0) / 8.0, (0.3, 0.7)
    return (lambda gamma: fixtures.boolean_model(fx, gamma)), None, (0.2, 0.6)


def cmd_perc_scan(args) -> int:
    build, resolution, _ = _perc_model(fixtures.REGISTRY[args.model])
    grid = _parse_grid(args.grid)
    scan = threshold_scan(
        build, grid, args.n, args.samples, args.seed,
        event=args.event, resolution=resolution,
    )
    _write(
        args.output,
        scan.to_csv(),
        {"model": args.model, "n": args.n, "event": args.event, "seed": args.seed},
    )
    return 0


def cmd_perc_critical(args) -> int:
    build, resolution, bracket = _perc_model(fixtures.REGISTRY[args.model])
    lo = bracket[0] if args.lo is None else args.lo
    hi = bracket[1] if args.hi is None else args.hi
    rect = BoxWindow((0.0, 0.0), (float(args.n), float(args.n)))

    def prob_at(param, samples, ridx):
        return crossing_probability(
            build(param), rect, samples, (args.seed, ridx), resolution=resolution
        )

    est, ci = estimate_critical(
        prob_at, lo, hi, tolerance=args.tolerance, base_samples=args.samples
    )
    _write(args.output, {
        "model": args.model, "n": args.n, "estimate": est, "ci": ci,
        "bracket": [lo, hi], "seed": args.seed,
    })
    print(f"critical estimate {est:.4f} +- {ci:.4f}")
    return 0


def cmd_perc_duality(args) -> int:
    fx = fixtures.REGISTRY[args.model]
    model = fixtures.confetti_model(fx, args.p)
    rect = BoxWindow((0.0, 0.0), (float(args.n), float(args.n)))
    h = fx.get("radius", 1.0) / 10.0
    hits, bad = confetti_duality_counts(model, rect, h, args.samples, (args.seed,))
    _write(args.output, {
        "model": args.model, "p": args.p, "n": args.n, "samples": args.samples,
        "crossing_rate": hits / args.samples, "xor_violations": bad, "seed": args.seed,
    })
    print(f"duality XOR violations: {bad}/{args.samples}")
    return 0 if bad == 0 else 1


def cmd_acceptance(args) -> int:
    names = None if args.which == "all" else [args.which]
    results = acceptance.run(names)
    for res in results:
        print(res.line())
    summary = {
        "version": __version__,
        "passed": all(r.passed for r in results),
        "criteria": [r.record() for r in results],
    }
    if args.output:
        _write(args.output, summary)
    return 0 if summary["passed"] else 1


def cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config schema violation: the config must be an object")
    required = {"version", "experiment", "params"}
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"config schema violation: missing keys {sorted(missing)}")
    if cfg["version"] != 1:
        raise ValueError(
            f"config schema violation: unsupported version {cfg['version']!r}"
        )
    experiment, params = cfg["experiment"], cfg["params"]
    if not isinstance(experiment, str) or not isinstance(params, dict):
        raise ValueError(
            "config schema violation: 'experiment' must be a string and "
            "'params' an object"
        )
    params = dict(params)
    params.setdefault("seed", cfg.get("seed", 0))
    # two-level commands are written with a space, as in "stopping audit"
    argv = experiment.split()
    for key, val in params.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return main(argv)


# ---------------------------------------------------------------------------


# argparse's test for a negative number (``-1``, ``-.5``), widened to every
# token whose second character is a digit or ``.``, such as ``-1e3`` and the
# grid ``-0.2:0.6:3`` (no option of ours starts so), and to the other tokens
# that ``float`` reads, ``-inf``, ``-infinity`` and ``-nan`` in any case:
# argparse takes a matching token as a value, not an option.
_VALUE_TOKEN = re.compile(r"-([\d.]|(inf|infinity|nan)$)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors, so that ``main`` ends them, as every other
    bad input, with one ``error:`` line; its subparsers are of this class.
    ``--n -inf`` passes -inf to ``main``'s checks, as ``--n=-inf`` does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_TOKEN

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _names(kind: str, model: str | None = None) -> list[str]:
    """The registry's fixtures of ``kind`` (and, if given, of ``model``)."""
    return [name for name, fx in fixtures.REGISTRY.items()
            if fx["kind"] == kind and model in (None, fx.get("model"))]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poissonlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a configuration, write CSV")
    p.add_argument("--fixture", default="poisson-square", choices=_names("sample"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="sample.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stopping", help="stopping-set audits")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pa = ssub.add_parser("audit")
    pa.add_argument("--fixture", default="ball-growth", choices=_names("stopping"))
    pa.add_argument("--trials", type=int, default=2000)
    pa.add_argument("--probes", type=int, default=100)
    pa.add_argument("--samples", type=int, default=500)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="stopping_audit.json")
    pa.set_defaults(func=cmd_stopping_audit)

    p = sub.add_parser("chaos", help="inequality and spectrum audits")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pa = csub.add_parser("audit")
    pa.add_argument("--fixture", default="osss-empty-space", choices=_names("chaos"))
    pa.add_argument("--samples", type=int, default=20000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="chaos_audit.json")
    pa.set_defaults(func=cmd_chaos_audit)

    p = sub.add_parser("dynamics", help="birth-death paths")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pa = dsub.add_parser("run")
    pa.add_argument("--fixture", default="birth-death-small",
                    choices=_names("dynamics"))
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="path.csv")
    pa.set_defaults(func=cmd_dynamics_run)
    pa = dsub.add_parser("exceptional")
    pa.add_argument("--fixture", default="crossing-exceptional",
                    choices=_names("dynamics"))
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="exceptional.csv")
    pa.set_defaults(func=cmd_dynamics_exceptional)

    p = sub.add_parser("perc", help="percolation experiments")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pa = psub.add_parser("scan")
    pa.add_argument("--model", default="boolean-k1", choices=_names("perc"))
    pa.add_argument("--grid", default="0.2:0.6:9", help="lo:hi:num")
    pa.add_argument("--n", type=float, default=10.0)
    pa.add_argument("--event", default="cross", choices=["cross", "one_arm"])
    pa.add_argument("--samples", type=int, default=200)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="scan.csv")
    pa.set_defaults(func=cmd_perc_scan)
    pa = psub.add_parser("critical")
    pa.add_argument("--model", default="boolean-k1", choices=_names("perc"))
    pa.add_argument("--n", type=float, default=10.0)
    pa.add_argument("--lo", type=float, default=None,
                    help="bracket start (default: 0.2 Boolean gamma, 0.3 confetti p)")
    pa.add_argument("--hi", type=float, default=None,
                    help="bracket end (default: 0.6 Boolean gamma, 0.7 confetti p)")
    pa.add_argument("--tolerance", type=float, default=0.02)
    pa.add_argument("--samples", type=int, default=150)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="critical.json")
    pa.set_defaults(func=cmd_perc_critical)
    pa = psub.add_parser("duality")
    pa.add_argument("--model", default="confetti-symmetric",
                    choices=_names("perc", "confetti"))
    pa.add_argument("--p", type=float, default=0.5)
    pa.add_argument("--n", type=float, default=10.0)
    pa.add_argument("--samples", type=int, default=200)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", "-o", default="duality.json")
    pa.set_defaults(func=cmd_perc_duality)

    p = sub.add_parser("acceptance", help="run the acceptance suite, one worker "
                       "process per usable core")
    p.add_argument("which", nargs="?", default="all")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_acceptance)

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


# replica counts; every command that takes one divides or loops by it
_POSITIVE = ("samples", "trials", "probes")
_FINITE = ("n", "lo", "hi", "p")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for name in _POSITIVE:
            if getattr(args, name, 1) < 1:
                raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")
        for name in _FINITE:
            value = getattr(args, name, None)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        if getattr(args, "n", 1.0) <= 0:
            raise ValueError(f"--n must be positive, got {args.n}")
        return args.func(args)
    except (argparse.ArgumentError, ValueError, FileNotFoundError, RuntimeError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
