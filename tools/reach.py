"""List the code of ``src/poissonlab`` that no entry point of the lab runs.

    python3 tools/reach.py

Run from the root of a source checkout. ``sys.settrace`` records every
function of ``src/poissonlab`` called, and every line executed in it, while
these entry points run in this one process:

* the twelve acceptance criteria, at the reduced counts of ``CRITERIA``;
* every registry fixture through the command of its kind (``KIND_ARGV``,
  the table of ``tests/test_cli.py``), the one-arm scans on ``boolean-k1``
  and ``boolean-k2``, ``perc critical``, ``perc duality``, ``dynamics
  exceptional`` on both dynamics fixtures and ``acceptance 3``;
* the five demos;
* every benchmark workload at its ``TINY`` sizes: set-up, one timed block
  and the reference checks.

Outputs are written under a temporary directory, removed at the end, and
standard output of the entry points is discarded. Two reports follow.

The first lists each function defined in ``src/poissonlab`` that was never
called, with its line count (decorators included); a function nested in an
unreached one is counted with it, not listed. A function reached only by
tests is listed: that is what the report is for.

The second lists the statements inside called functions that never ran,
one line per run of consecutive statements, with its function. Docstrings
and ``raise`` statements are left out (an error path is meant to be rare),
and so are compound statements' headers, whose bodies are listed instead.
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


COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
            ast.Try, ast.Match, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path):
    """(enclosing function's first line, its qualified name, first line, last
    line) of every simple statement inside a ``def``, docstrings (any bare
    string), ``raise``, ``global`` and ``nonlocal`` left out."""
    out = []

    def visit(node, prefix, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                visit(child, name + ".", (first, name))
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", func)
                continue
            bare_string = isinstance(child, ast.Expr) and isinstance(
                child.value, ast.Constant) and isinstance(child.value.value, str)
            if (func and isinstance(child, ast.stmt) and not isinstance(child, COMPOUND)
                    and not bare_string
                    and not isinstance(child, (ast.Raise, ast.Global, ast.Nonlocal))):
                out.append((*func, child.lineno, child.end_lineno))
            visit(child, prefix, func)

    visit(ast.parse(path.read_text()), "", None)
    return out


def traced() -> tuple[set, set]:
    """Run the entry points in a temporary directory with stdout discarded,
    under ``sys.settrace`` with line events in ``src/poissonlab`` only; return
    the (file, first line) of every function called there and the (file,
    line) of every line executed."""
    src = {str(p) for p in SRC.glob("*.py")}
    codes, lines = set(), set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in src:
            codes.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return local
        return None

    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        os.chdir(tmp)
        sys.settrace(trace)
        try:
            with contextlib.redirect_stdout(null):
                run_entry_points()
        finally:
            sys.settrace(None)
            os.chdir(old)
    return codes, lines


def report_functions(codes: set) -> None:
    total, unreached = 0, []
    for path in sorted(SRC.glob("*.py")):
        defs = functions(path)
        total += len(defs)
        missed = {first for first, *_ in defs if (str(path), first) not in codes}
        unreached += [(path.name, first, name, lines)
                      for first, name, lines, outer in defs
                      if first in missed and outer not in missed]
    for fname, first, name, lines in unreached:
        print(f"{fname}:{first}  {name}  {lines} lines")
    print(f"{len(unreached)} of {total} functions unreached, "
          f"{sum(u[3] for u in unreached)} lines")


def report_lines(codes: set, lines: set) -> None:
    total, runs = 0, []
    for path in sorted(SRC.glob("*.py")):
        name = str(path)
        last = None
        for first, func, lo, hi in statements(path):
            if (name, first) not in codes:
                continue
            total += 1
            if any((name, k) in lines for k in range(lo, hi + 1)):
                last = None
                continue
            if last is not None and last[2] == func:
                last[1], last[3] = hi, last[3] + 1
            else:
                last = [lo, hi, func, 1]
                runs.append((path.name, last))
    for fname, (lo, hi, func, count) in runs:
        span = f"{lo}" if lo == hi else f"{lo}-{hi}"
        print(f"{fname}:{span}  {func}  {count} statement{'s' * (count > 1)}")
    print(f"{sum(r[1][3] for r in runs)} of {total} statements in called functions "
          f"never ran, in {len(runs)} runs")


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/reach.py", file=sys.stderr)
        return 2
    codes, lines = traced()
    report_functions(codes)
    print()
    report_lines(codes, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
