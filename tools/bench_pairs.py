"""Summarise paired benchmark runs of a parent and a changed checkout.

    python3 tools/bench_pairs.py PARENT_RESULTS CHANGE_RESULTS -o BENCH_<n>.json

Each argument is the ``benchmarks/results`` directory of one checkout, after
``benchmarks/run.py --workload W --seed S --trace 0`` ran there for the same
(workload, seed) pairs. A pair is one seed of one workload, run once on each
side. Per workload and end-to-end metric, the output holds both sides'
medians and quartiles, the pairs the change won (ties count for neither
side) and the distance between the parent's quartiles (IQR); it also lists
the seeds, whether each seed's output digest matched, and each side's
``provenance`` block. Metric names, units, directions and bounds come from
``BENCHMARK.json``; a bound is a fraction of the parent's median.

Each metric also gets a ``verdict``, the first that applies of:

* ``gain``: the change won at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's IQR is wider than the bound, and not every
  change run is better than every parent run;
* ``within_bound``: any other case.

Where ``--trace 1`` also ran on both sides for a workload's seeds, its
``layers`` hold each side's median of every per-layer metric that is not
zero on every traced run, over those seeds. A run of fixed length lets a
faster layer be called more often, so each called layer also gets its self
time per call, ``<layer>.self_us_per_call`` in microseconds, and every
layer its self time per timed replica, ``<layer>.self_us_per_replica`` (for
a layer with no call count, such as an estimator called once per block).
Traced times are raw, and the shared machine's speed can halve for minutes,
so both are scaled as ``run.py`` scales block times, by the run's median
block scale.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(results: Path, trace: int) -> dict:
    """{(workload, seed): results file} of the runs in ``results`` made with
    ``--trace trace``."""
    runs = {}
    for path in sorted(results.glob(f"*-trace{trace}.json")):
        run = json.loads(path.read_text())
        runs[run["workload"], run["seed"]] = run
    return runs


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def layer_values(run: dict) -> dict:
    """Per-layer metrics of one traced run, with the scaled self times per
    call (of every layer called in it) and per replica in microseconds."""
    values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    us = 1e6 * statistics.median(run["block_scale"])
    for name, value in list(values.items()):
        if name.endswith(".calls") and value:
            layer = name.removesuffix(".calls")
            values[f"{layer}.self_us_per_call"] = values[f"{layer}.self_s"] / value * us
        if name.endswith(".self_s"):
            layer = name.removesuffix(".self_s")
            values[f"{layer}.self_us_per_replica"] = value / run["replicas"] * us
    return values


def layers(parent: dict, change: dict, workload: str) -> dict | None:
    """Both sides' medians of the per-layer metrics of ``workload`` over the
    seeds traced on both sides, or None where there are none."""
    seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
    if not seeds:
        return None
    par = [layer_values(parent[workload, s]) for s in seeds]
    chg = [layer_values(change[workload, s]) for s in seeds]
    names = set.intersection(*(set(v) for v in par + chg))
    return {
        "seeds": seeds,
        "seconds": sorted({side[workload, s]["seconds"]
                           for side in (parent, change) for s in seeds}),
        "metrics": {
            name: {"parent": statistics.median(v[name] for v in par),
                   "change": statistics.median(v[name] for v in chg)}
            for name in sorted(names) if any(v[name] for v in par + chg)
        },
    }


def verdict(row: dict, sign: int, bound: float) -> str:
    """The verdict of one metric row of ``summarise`` (see the module
    docstring); ``sign`` is 1 where higher is better, -1 where lower is."""
    par, pairs = row["parent"], row["values"]
    gain = sign * (row["change"]["median"] - par["median"])
    slack = bound * abs(par["median"])
    if row["pairs_won"] >= 0.9 * len(pairs) and gain > row["parent_iqr"]:
        return "gain"
    if gain < -slack:
        return "worse"
    best_parent = max(sign * v["parent"] for v in pairs)
    if row["parent_iqr"] > slack and not all(sign * v["change"] > best_parent
                                             for v in pairs):
        return "unresolved"
    return "within_bound"


def summarise(parent: dict, change: dict, metrics: list[dict],
              parent_traced: dict, change_traced: dict) -> dict:
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        row = {
            "seeds": seeds,
            "seconds": sorted({run["seconds"] for pair in pairs for run in pair}),
            "digests_equal": [p["digest"] == c["digest"] for p, c in pairs],
            "metrics": {},
            "provenance": {"parent": pairs[0][0]["provenance"],
                           "change": pairs[0][1]["provenance"]},
        }
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = [(p["result"]["metrics"][name]["value"],
                       c["result"]["metrics"][name]["value"]) for p, c in pairs]
            par = quartiles([v for v, _ in values])
            chg = quartiles([v for _, v in values])
            row["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": par,
                "change": chg,
                "ratio_of_medians": chg["median"] / par["median"] if par["median"] else None,
                "pairs_won": sum(sign * (c - p) > 0 for p, c in values),
                "pairs_lost": sum(sign * (c - p) < 0 for p, c in values),
                "parent_iqr": par["q3"] - par["q1"],
                "values": [{"seed": s, "parent": p, "change": c}
                           for s, (p, c) in zip(seeds, values)],
            }
            row["metrics"][name]["verdict"] = verdict(
                row["metrics"][name], sign, metric["bound"])
        traced = layers(parent_traced, change_traced, workload)
        if traced is not None:
            row["layers"] = traced
        out[workload] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="parent checkout's benchmarks/results")
    ap.add_argument("change", type=Path, help="changed checkout's benchmarks/results")
    ap.add_argument("--output", "-o", type=Path, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = summarise(load(args.parent, 0), load(args.change, 0), metrics,
                          load(args.parent, 1), load(args.change, 1))
    if not workloads:
        print("error: no (workload, seed) pair was run on both sides", file=sys.stderr)
        return 2
    args.output.write_text(json.dumps({"workloads": workloads}, indent=1, sort_keys=True)
                           + "\n")
    for workload, row in workloads.items():
        rate = row["metrics"]["replicas_per_s"]
        verdicts = " ".join(f"{name}={m['verdict']}" for name, m in row["metrics"].items())
        print(f"{workload}: replicas_per_s {rate['parent']['median']:.4g} -> "
              f"{rate['change']['median']:.4g} ({rate['ratio_of_medians']:.3f}x), "
              f"won {rate['pairs_won']}/{len(row['seeds'])}, "
              f"digests equal {all(row['digests_equal'])}; {verdicts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
