"""Every demo prints what ``demos/stdout/<name>.txt`` records.

The demos draw only from pinned streams, so their output is a pure function
of the library: a change that moves a draw, a statistic or a printed figure
shows here as a differing line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_stdout():
    assert DEMOS
    recorded = {p.stem for p in (ROOT / "demos" / "stdout").glob("*.txt")}
    assert recorded == {p.stem for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_the_record(path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    )}
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "demos" / "stdout" / f"{path.stem}.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()
