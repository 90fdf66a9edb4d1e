"""tools/bench_pairs.py on synthetic results directories: pairs of untraced
runs give the end-to-end rows, pairs of traced runs the per-layer medians."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

def write_run(results: Path, workload, seed, trace, metrics, digest="d", scale=1.0):
    results.mkdir(parents=True, exist_ok=True)
    run = {
        "workload": workload, "seed": seed, "seconds": 15.0, "trace": trace,
        "replicas": 100,
        "digest": digest, "provenance": {"side": results.parent.name},
        "block_scale": [scale / 2.0, scale, scale, 4.0],
        "result": {"metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}},
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run))


def untraced(rate):
    return {"replicas_per_s": rate, "setup_s": 1.0, "peak_rss_mb": 100.0, "ok_frac": 1.0}


def traced(world_calls, world_self_s):
    return {"percolation.world.calls": world_calls,
            "percolation.world.self_s": world_self_s,
            "stopping.contains.calls": 0, "stopping.contains.self_s": 0.0,
            "driver.self_s": 2.0}


@pytest.fixture
def results(tmp_path):
    parent, change = tmp_path / "parent" / "results", tmp_path / "change" / "results"
    for seed, (p, c) in enumerate([(100.0, 120.0), (110.0, 105.0), (90.0, 130.0)]):
        write_run(parent, "w", seed, 0, untraced(p))
        write_run(change, "w", seed, 0, untraced(c), digest="d" if seed else "x")
    write_run(parent, "w", 7, 0, untraced(1.0))  # no change run: not a pair
    for seed, (p, c) in enumerate([((1000, 0.5), (1500, 0.6)), ((2000, 0.8), (2000, 0.5))]):
        write_run(parent, "w", seed, 1, traced(*p))
        write_run(change, "w", seed, 1, traced(*c), scale=1.0 if seed else 0.5)
    write_run(parent, "v", 0, 1, traced(10, 1.0))  # traced only: no row
    write_run(change, "v", 0, 1, traced(10, 1.0))
    return parent, change


def test_pairs_untraced_runs_and_medians_traced_layers(results, tmp_path):
    parent, change = results
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["workloads"]
    assert set(rows) == {"w"}
    row = rows["w"]
    assert row["seeds"] == [0, 1, 2]
    assert row["digests_equal"] == [False, True, True]
    rate = row["metrics"]["replicas_per_s"]
    assert rate["parent"]["median"] == 100.0 and rate["change"]["median"] == 120.0
    assert (rate["pairs_won"], rate["pairs_lost"]) == (2, 1)
    assert row["metrics"]["setup_s"]["pairs_won"] == 0
    layers = row["layers"]
    assert layers["seeds"] == [0, 1] and layers["seconds"] == [15.0]
    metrics = layers["metrics"]
    assert metrics["percolation.world.calls"] == {"parent": 1500, "change": 1750}
    assert metrics["percolation.world.self_s"] == {"parent": 0.65, "change": 0.55}
    # per call at scale 1: parent 500 and 400 us, change 400 (at scale 0.5:
    # 200) and 250 us
    per_call = metrics["percolation.world.self_us_per_call"]
    assert per_call["parent"] == pytest.approx(450.0)
    assert per_call["change"] == pytest.approx(225.0)
    # per replica (100 each): parent 5000 and 8000 us, change 6000 (at scale
    # 0.5: 3000) and 5000 us; driver.self_s is 2 s on every run
    per_replica = metrics["percolation.world.self_us_per_replica"]
    assert per_replica["parent"] == pytest.approx(6500.0)
    assert per_replica["change"] == pytest.approx(4000.0)
    assert metrics["driver.self_us_per_replica"]["parent"] == pytest.approx(20000.0)
    # layers that read zero on every traced run are left out
    assert not any(name.startswith("stopping.") for name in metrics)
    assert metrics["driver.self_s"] == {"parent": 2.0, "change": 2.0}


def test_no_common_pair_is_an_error(tmp_path, capsys):
    write_run(tmp_path / "p", "w", 1, 0, untraced(1.0))
    write_run(tmp_path / "c", "w", 2, 0, untraced(1.0))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"), "-o", str(out)]) == 2
    assert "no (workload, seed) pair" in capsys.readouterr().err
    assert not out.exists()


BASE = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
WIDE = [50.0, 60.0, 80.0, 100.0, 120.0, 140.0, 150.0, 160.0, 170.0, 180.0]  # IQR 72.5


def verdict_of(parent_values, change_values, better="higher", bound=0.2):
    """The verdict of one synthetic metric over paired runs, seed i pairing
    parent_values[i] with change_values[i]."""
    def runs(values):
        return {("w", seed): {"seconds": 15.0, "digest": "d", "provenance": {},
                              "result": {"metrics": {"m": {"value": v}}}}
                for seed, v in enumerate(values)}
    metric = {"name": "m", "unit": "u", "better": better, "bound": bound}
    rows = bench_pairs.summarise(runs(parent_values), runs(change_values), [metric], {}, {})
    return rows["w"]["metrics"]["m"]["verdict"]


def test_verdict_gain_needs_nine_in_ten_pairs_and_a_median_beyond_the_iqr():
    assert verdict_of(BASE, [v + 20.0 for v in BASE]) == "gain"
    nine = [v + 20.0 for v in BASE[:9]] + [BASE[9] - 1.0]
    assert verdict_of(BASE, nine) == "gain"
    eight = [v + 20.0 for v in BASE[:8]] + [v - 1.0 for v in BASE[8:]]
    assert verdict_of(BASE, eight) == "within_bound"
    # every pair won, but the median moved by less than the parent's IQR
    assert verdict_of(BASE, [v + 4.0 for v in BASE]) == "within_bound"
    # lower is better: a gain is a smaller value
    assert verdict_of(BASE, [v - 20.0 for v in BASE], better="lower") == "gain"


def test_verdict_worse_is_beyond_the_bound_of_the_parent_median():
    assert verdict_of(BASE, [v - 30.0 for v in BASE]) == "worse"
    # 20 below a median of 104.5 is inside a bound of 0.2 (20.9)
    assert verdict_of(BASE, [v - 20.0 for v in BASE]) == "within_bound"
    assert verdict_of(BASE, [v * 1.3 for v in BASE], better="lower") == "worse"
    assert verdict_of(BASE, [v * 1.05 for v in BASE], better="lower",
                      bound=0.25) == "within_bound"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    assert verdict_of(WIDE, WIDE[::-1]) == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict_of(WIDE, [181.0 + i for i in range(10)]) == "within_bound"
    assert verdict_of(WIDE, [181.0 + i for i in range(10)], bound=1.0) == "within_bound"


def test_verdict_within_bound_and_printed_in_the_summary(results, tmp_path, capsys):
    assert verdict_of(BASE, BASE[::-1]) == "within_bound"
    assert verdict_of([1.0] * 10, [1.0] * 10, bound=1e-5) == "within_bound"
    parent, change = results
    assert bench_pairs.main([str(parent), str(change), "-o", str(tmp_path / "B.json")]) == 0
    row = json.loads((tmp_path / "B.json").read_text())["workloads"]["w"]
    verdicts = {name: m["verdict"] for name, m in row["metrics"].items()}
    # rates 100/110/90 -> 120/105/130: a median gain of 20 beyond the IQR of 10,
    # but two pairs won of three, below 9 in 10
    assert verdicts == {"replicas_per_s": "within_bound", "setup_s": "within_bound",
                        "peak_rss_mb": "within_bound", "ok_frac": "within_bound"}
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.endswith("replicas_per_s=within_bound setup_s=within_bound "
                         "peak_rss_mb=within_bound ok_frac=within_bound")
