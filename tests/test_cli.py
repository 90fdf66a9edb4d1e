import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from poissonlab import __version__, dynamics, fixtures, svgplot
from poissonlab.cli import main
from poissonlab.process import BoxWindow, HomogeneousIntensity, ProcessSpec
from poissonlab.rng import stream

PROVENANCE = {
    "poissonlab": __version__, "numpy": np.__version__, "scipy": scipy.__version__
}


def run(tmp_path, *argv):
    import os

    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def test_sample_deterministic_bytes(tmp_path):
    assert run(tmp_path, "sample", "--fixture", "poisson-square", "--seed", "5",
               "-o", "a.csv") == 0
    assert run(tmp_path, "sample", "--fixture", "poisson-square", "--seed", "5",
               "-o", "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert run(tmp_path, "sample", "--fixture", "poisson-square", "--seed", "6",
               "-o", "c.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_unknown_fixture_errors(tmp_path):
    assert run(tmp_path, "sample", "--fixture", "no-such-thing") == 2


def test_perc_scan_and_plot(tmp_path):
    assert run(
        tmp_path, "perc", "scan", "--model", "boolean-k1", "--grid", "0.25:0.55:4",
        "--n", "6", "--samples", "40", "--seed", "1", "-o", "scan.csv",
    ) == 0
    text = (tmp_path / "scan.csv").read_text()
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "param,n,estimate,se,samples,seed"
    assert len(rows) == 5
    assert run(tmp_path, "plot", "--csv", str(tmp_path / "scan.csv"),
               "--kind", "threshold", "-o", "scan.svg") == 0
    svg = (tmp_path / "scan.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_empty_csv_errors(tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("param,estimate,se\n")
    assert run(tmp_path, "plot", "--csv", str(tmp_path / "empty.csv"),
               "--kind", "threshold", "-o", "x.svg") == 2
    assert capsys.readouterr().err == "error: empty CSV: nothing to plot\n"


def test_stopping_audit_cli(tmp_path):
    assert run(
        tmp_path, "stopping", "audit", "--fixture", "nonattainable",
        "--trials", "300", "--seed", "2", "-o", "na.json",
    ) == 0
    rep = json.loads((tmp_path / "na.json").read_text())
    assert rep["axiom"]["passed"]
    assert rep["provenance"] == PROVENANCE


def test_stopping_audit_line_exploration_revealment(tmp_path):
    assert run(
        tmp_path, "stopping", "audit", "--fixture", "line-exploration",
        "--trials", "3", "--probes", "5", "--samples", "4", "--seed", "7",
        "-o", "le.json",
    ) == 0
    rep = json.loads((tmp_path / "le.json").read_text())
    want = fixtures.line_revealment(6, 0.36, 4, stream(7, 1))
    assert rep["revealment"] == {"delta": want.delta, "delta_se": want.delta_se}


def test_chaos_audit_cli(tmp_path):
    assert run(
        tmp_path, "chaos", "audit", "--fixture", "chaos-3cell-exact",
        "-o", "c.json",
    ) == 0
    rep = json.loads((tmp_path / "c.json").read_text())
    assert rep["exact"] and len(rep["weights"]) == 8


def body(path):
    return "".join(ln for ln in path.read_text().splitlines(True) if not ln.startswith("#"))


def test_dynamics_cli(tmp_path):
    assert run(tmp_path, "dynamics", "run", "--fixture", "birth-death-small",
               "--seed", "3", "-o", "path.csv") == 0
    rows = [
        ln for ln in (tmp_path / "path.csv").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert rows[0] == "time,kind,point_id,x0,x1"
    plain = ProcessSpec(HomogeneousIntensity(3.0), BoxWindow((0.0, 0.0), (1.0, 1.0)))
    path = dynamics.simulate_path(plain, 2.0, stream(3))
    assert body(tmp_path / "path.csv") == path.to_csv()
    assert run(tmp_path, "dynamics", "exceptional", "--fixture",
               "crossing-exceptional", "--seed", "3", "-o", "exc.csv") == 0


def read_json(path):
    return json.loads(path.read_text())


CRITICAL = ("perc", "critical", "--tolerance", "0.05", "--seed", "1")


@pytest.mark.parametrize("model,n,samples,bracket", [
    ("confetti-symmetric", "4", "20", [0.3, 0.7]),
    ("boolean-k1", "6", "30", [0.2, 0.6]),
])
def test_perc_critical_bracket_defaults_to_the_model_and_is_recorded(
    tmp_path, model, n, samples, bracket
):
    argv = (*CRITICAL, "--model", model, "--n", n, "--samples", samples)
    lo, hi = (str(v) for v in bracket)
    assert run(tmp_path, *argv, "-o", "default.json") == 0
    assert run(tmp_path, *argv, "--lo", lo, "--hi", hi, "-o", "explicit.json") == 0
    default = read_json(tmp_path / "default.json")
    assert default["bracket"] == bracket
    assert default == read_json(tmp_path / "explicit.json")


def test_perc_critical_honours_an_explicit_confetti_bracket(tmp_path):
    argv = (*CRITICAL, "--model", "confetti-symmetric", "--n", "4", "--samples", "20")
    assert run(tmp_path, *argv, "-o", "default.json") == 0
    assert run(tmp_path, *argv, "--lo", "0.05", "--hi", "0.95", "-o", "wide.json") == 0
    default, wide = read_json(tmp_path / "default.json"), read_json(tmp_path / "wide.json")
    assert wide["bracket"] == [0.05, 0.95]
    assert (wide["estimate"], wide["ci"]) != (default["estimate"], default["ci"])


def test_dynamics_run_and_exceptional_share_the_crossing_path(tmp_path):
    """``dynamics run`` writes the path whose crossing flips ``dynamics
    exceptional`` counts: the radius-padded window, with radius marks."""
    fx = fixtures.get("crossing-exceptional", "dynamics")
    _, _, process, f = fixtures.crossing_setup(fx["n"], fx["gamma"])
    for seed in ("3", "11"):
        assert run(tmp_path, "dynamics", "run", "--fixture", "crossing-exceptional",
                   "--seed", seed, "-o", "path.csv") == 0
        assert run(tmp_path, "dynamics", "exceptional", "--fixture",
                   "crossing-exceptional", "--seed", seed, "-o", "exc.csv") == 0
        path = dynamics.simulate_path(process, fx["horizon"], stream(int(seed)))
        text = body(tmp_path / "path.csv")
        assert text.splitlines()[0] == "time,kind,point_id,x0,x1,radius"
        assert text == path.to_csv()
        times = [float(t) for t in body(tmp_path / "exc.csv").split()[1:]]
        assert times == dynamics.exceptional_times(path, f)
        assert len(times) == {"3": 0, "11": 4}[seed]


def test_perc_duality_cli(tmp_path):
    assert run(tmp_path, "perc", "duality", "--n", "5", "--samples", "25",
               "--seed", "4", "-o", "d.json") == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    assert rep["xor_violations"] == 0
    assert rep["provenance"] == PROVENANCE


def test_perc_scan_bad_event_and_runtime_errors(tmp_path, monkeypatch, capsys):
    assert run(
        tmp_path, "perc", "scan", "--model", "confetti-symmetric", "--event",
        "one_arm", "--grid", "0.4:0.6:2", "--n", "4", "--samples", "2",
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1

    def horizon_exhausted(*args, **kwargs):
        raise RuntimeError("horizon 1 left uncolored cells; need >= 2")

    monkeypatch.setattr("poissonlab.cli.threshold_scan", horizon_exhausted)
    assert run(tmp_path, "perc", "scan", "--grid", "0.4:0.6:2") == 2
    assert capsys.readouterr().err.startswith("error: horizon")


@pytest.mark.parametrize("argv", [
    ("chaos", "audit", "--samples", "0"),
    ("perc", "scan", "--samples", "0"),
    ("perc", "critical", "--samples", "0"),
    ("perc", "duality", "--samples", "0"),
    ("perc", "duality", "--samples", "-1"),
    ("stopping", "audit", "--samples", "0"),
    ("stopping", "audit", "--trials", "0"),
    ("stopping", "audit", "--probes", "-3"),
])
def test_non_positive_counts_are_rejected(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "-o", "out.json") == 2
    err = capsys.readouterr().err
    assert err == f"error: {argv[-2]} must be at least 1, got {argv[-1]}\n"
    assert not (tmp_path / "out.json").exists()


def test_run_config_and_schema_errors(tmp_path, capsys):
    cfg = {
        "version": 1,
        "experiment": "sample",
        "seed": 7,
        "params": {"fixture": "poisson-square", "output": "out.csv"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "run", "--config", str(tmp_path / "cfg.json")) == 0
    assert (tmp_path / "out.csv").exists()
    capsys.readouterr()
    (tmp_path / "bad.json").write_text(json.dumps({"experiment": "sample"}))
    (tmp_path / "v2.json").write_text(json.dumps({**cfg, "version": 2}))
    for bad in ("bad.json", "v2.json"):
        assert run(tmp_path, "run", "--config", str(tmp_path / bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config schema violation") and err.count("\n") == 1


def test_run_config_params_not_an_object(tmp_path, capsys):
    cfg = {"version": 1, "experiment": "sample", "params": 5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "run", "--config", str(tmp_path / "cfg.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violation") and err.count("\n") == 1


def test_run_config_two_level_experiment(tmp_path):
    cfg = {
        "version": 1,
        "experiment": "stopping audit",
        "seed": 2,
        "params": {"fixture": "nonattainable", "trials": 100, "output": "na.json"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "run", "--config", str(tmp_path / "cfg.json")) == 0
    rep = json.loads((tmp_path / "na.json").read_text())
    assert rep["axiom"]["passed"] and rep["seed"] == 2


def test_acceptance_single_criterion(tmp_path):
    assert run(tmp_path, "acceptance", "3", "-o", "acc.json") == 0
    rep = json.loads((tmp_path / "acc.json").read_text())
    assert rep["passed"] and len(rep["criteria"]) == 1


def test_acceptance_unknown_name(tmp_path, capsys):
    assert run(tmp_path, "acceptance", "nope") == 2
    assert capsys.readouterr().err == "error: unknown criteria: ['nope']\n"


@pytest.mark.parametrize("argv", [
    ("plot", "--csv", "empty.csv"),
    ("plot", "--csv", "ab.csv", "--kind", "threshold"),
    ("plot", "--csv", "ab.csv", "--kind", "covariance"),
    ("plot", "--csv", "ragged.csv"),
    ("perc", "duality", "--model", "boolean-k1"),
    ("acceptance", "99"),
    ("perc", "scan", "--model", "poisson-square"),
    ("perc", "critical", "--model", "ball-growth"),
    ("dynamics", "exceptional", "--fixture", "poisson-square"),
    ("sample", "--fixture", "line-exploration"),
    ("stopping", "audit", "--fixture", "poisson-square"),
    ("chaos", "audit", "--fixture", "ball-growth"),
    ("dynamics", "run", "--fixture", "boolean-k1"),
    ("sample", "--fixture", "nope"),
    ("perc", "scan", "--grid", "0.2:0.6:0"),
    ("perc", "scan", "--grid", "0.2:0.6"),
    ("chaos", "audit", "--fixture", "poincare-empty-space", "--samples", "1"),
    ("chaos", "audit", "--fixture", "sqrt-osss-empty-space", "--samples", "1"),
    ("chaos", "audit", "--fixture", "mehler-count", "--samples", "1"),
    ("chaos", "audit", "--fixture", "osss-empty-space", "--samples", "1"),
    ("perc", "critical", "--tolerance", "0"),
    ("perc", "critical", "--tolerance", "-1"),
    ("perc", "critical", "--tolerance", "nan"),
    ("perc", "duality", "--n", "inf"),
    ("perc", "scan", "--grid", "nan:0.6:2"),
    ("perc", "scan", "--n", "nan"),
])
def test_bad_input_ends_with_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "empty.csv").write_text("param,estimate,se\n")
    (tmp_path / "ab.csv").write_text("a,b\n1,2\n")
    (tmp_path / "ragged.csv").write_text("param,estimate,se\n1,2\n")
    assert run(tmp_path, *argv, "-o", "out.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err[len("error: ")] not in "'\""
    assert not (tmp_path / "out.txt").exists()


# the smallest counts at which each command runs every fixture of its kind
KIND_ARGV = {
    "sample": ("sample", "--fixture"),
    "stopping": ("stopping", "audit", "--trials", "20", "--probes", "10",
                 "--samples", "2", "--fixture"),
    "chaos": ("chaos", "audit", "--samples", "50", "--fixture"),
    "dynamics": ("dynamics", "run", "--fixture"),
    "perc": ("perc", "scan", "--grid", "0.4:0.6:2", "--n", "4", "--samples", "2",
             "--model"),
}


RECORDS = Path(__file__).resolve().parent / "cli_records"


def without_provenance(text):
    """A command's output with its ``provenance`` object removed: from the
    JSON document, or from the JSON of a CSV's ``# poissonlab`` header."""
    if not text.startswith("#"):
        doc = json.loads(text)
        doc.pop("provenance")
        return doc
    header, rest = text.split("\n", 1)
    prefix, payload = header.split(" {", 1)
    fields = json.loads("{" + payload)
    fields.pop("provenance")
    return prefix, fields, rest


def assert_matches_record(path, record):
    """The output equals its committed record up to the provenance, so a
    numpy or scipy upgrade alone does not fail it."""
    got = without_provenance(path.read_text())
    assert got == without_provenance((RECORDS / record).read_text()), record


@pytest.mark.parametrize("name", sorted(fixtures.REGISTRY))
def test_every_registry_entry_runs_through_its_command(tmp_path, name):
    # exit 0: the command ran and, for the audits, gave the fixture's
    # expected verdict (broken-nearest is expected to fail its axiom check)
    argv = KIND_ARGV[fixtures.REGISTRY[name]["kind"]]
    assert run(tmp_path, *argv, name, "-o", "out.txt") == 0
    assert_matches_record(tmp_path / "out.txt", f"{name}.txt")


ONE_ARM_ARGV = ("perc", "scan", "--grid", "0.4:1.2:3", "--n", "4", "--samples", "40",
                "--event", "one_arm", "--model")


@pytest.mark.parametrize("model", ["boolean-k1", "boolean-k2"])
def test_one_arm_scan_matches_its_record(tmp_path, model):
    assert run(tmp_path, *ONE_ARM_ARGV, model, "-o", "out.txt") == 0
    assert_matches_record(tmp_path / "out.txt", f"one_arm-{model}.txt")


def test_every_cli_record_is_checked():
    checked = {f"{name}.txt" for name in fixtures.REGISTRY} | {
        "one_arm-boolean-k1.txt", "one_arm-boolean-k2.txt"
    }
    assert {p.name for p in RECORDS.iterdir()} == checked


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POISSONLAB_OUTDIR", str(tmp_path / "outs"))
    assert run(tmp_path, "sample", "--seed", "1", "-o", "s.csv") == 0
    assert (tmp_path / "outs" / "s.csv").exists()


def test_svgplot_validation():
    with pytest.raises(ValueError):
        svgplot.line_plot([{"x": [], "y": []}], "x", "y")
    svg = svgplot.line_plot(
        [{"x": [1, 2, 3], "y": [0.1, 0.01, 0.001], "label": "decay"}],
        "s", "theta", log_y=True,
    )
    assert "</svg>" in svg
