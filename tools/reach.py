"""List the functions of ``src/poissonlab`` that no entry point of the lab reaches.

    python3 tools/reach.py

Run from the root of a source checkout. ``sys.setprofile`` records every
Python function called while these entry points run, in this one process:

* the twelve acceptance criteria, at the reduced counts of ``CRITERIA``;
* every registry fixture through the command of its kind (``KIND_ARGV``,
  the table of ``tests/test_cli.py``), the one-arm scans on ``boolean-k1``
  and ``boolean-k2``, ``perc critical``, ``perc duality``, ``dynamics
  exceptional`` on both dynamics fixtures and ``acceptance 3``;
* the five demos;
* every benchmark workload at its ``TINY`` sizes: set-up, one timed block
  and the reference checks.

Outputs are written under a temporary directory, removed at the end, and
standard output of the entry points is discarded. The report lists each
function defined in ``src/poissonlab`` that was never called, with its line
count (decorators included); a function nested in an unreached one is
counted with it, not listed. A function reached only by tests is listed:
that is what the report is for.
"""

import ast
import contextlib
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "poissonlab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

CRITERIA = {
    "1": {"samples": 2_000},
    "2": {"samples": 2_000},
    "3": {},
    "4": {"samples": 500},
    "5": {"sizes": (10, 20), "mehler_samples": (100, 100), "delta_samples": (40, 40)},
    "6": {},
    "7": {"samples": 200},
    "8": {"samples": 200},
    "9": {"samples": 500},
    "10": {"sizes": (8, 16), "seeds": 2, "samples": 50},
    "11": {"samples": 200},
    "12": {"trials": 100, "probes": 20},
}

KIND_ARGV = {
    "sample": ("sample", "--fixture"),
    "stopping": ("stopping", "audit", "--trials", "20", "--probes", "10",
                 "--samples", "2", "--fixture"),
    "chaos": ("chaos", "audit", "--samples", "50", "--fixture"),
    "dynamics": ("dynamics", "run", "--fixture"),
    "perc": ("perc", "scan", "--grid", "0.4:0.6:2", "--n", "4", "--samples", "2",
             "--model"),
}

SMALL = ("--n", "4", "--samples", "20")
COMMANDS = [
    ("perc", "scan", "--grid", "0.4:1.2:3", "--event", "one_arm", *SMALL,
     "--model", "boolean-k1"),
    ("perc", "scan", "--grid", "0.4:1.2:3", "--event", "one_arm", *SMALL,
     "--model", "boolean-k2"),
    ("perc", "critical", "--tolerance", "0.1", *SMALL, "--model", "boolean-k1"),
    ("perc", "critical", "--tolerance", "0.1", *SMALL,
     "--model", "confetti-symmetric"),
    ("perc", "duality", *SMALL),
    ("dynamics", "exceptional", "--fixture", "birth-death-small"),
    ("dynamics", "exceptional", "--fixture", "crossing-exceptional"),
    ("acceptance", "3"),
]


def run_entry_points() -> None:
    from poissonlab import acceptance, cli, fixtures

    for name, kwargs in CRITERIA.items():
        acceptance.ALL_CRITERIA[name](**kwargs)
    for name, fx in fixtures.REGISTRY.items():
        cli.main([*KIND_ARGV[fx["kind"]], name, "-o", "out.txt"])
    for argv in COMMANDS:
        cli.main([*argv, "-o", "out.txt"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    import workloads

    for cls in workloads.WORKLOADS.values():
        wl = cls(0, tiny=True)
        wl.block(wl.rng(workloads.TIMED), wl.block_replicas)
        wl.references()


def functions(path: Path):
    """(first line, qualified name, line count, enclosing function's first
    line or None) of every ``def`` in the file."""
    out = []

    def visit(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1, outer))
                visit(child, name + ".", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(path.read_text()), "", None)
    return out


def main() -> int:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        os.chdir(tmp)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(null):
                run_entry_points()
        finally:
            sys.setprofile(None)
            os.chdir(old)

    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}
    total, unreached = 0, []
    for path in sorted(SRC.glob("*.py")):
        defs = functions(path)
        total += len(defs)
        missed = {first for first, *_ in defs if (path, first) not in reached}
        unreached += [(path.name, first, name, lines)
                      for first, name, lines, outer in defs
                      if first in missed and outer not in missed]
    for fname, first, name, lines in unreached:
        print(f"{fname}:{first}  {name}  {lines} lines")
    print(f"{len(unreached)} of {total} functions unreached, "
          f"{sum(u[3] for u in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
