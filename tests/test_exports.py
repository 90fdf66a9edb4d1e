"""Every name a ``poissonlab`` module lists in ``__all__`` exists, so a star
import of the module works and no removed name lingers in the list; and
every ``poissonlab`` name that the demos and the benchmark import exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import poissonlab

MODULES = [
    m.name
    for m in pkgutil.iter_modules(poissonlab.__path__)
    if hasattr(importlib.import_module(f"poissonlab.{m.name}"), "__all__")
]


def test_modules_with_all_are_found():
    assert {"chaos", "dynamics", "percolation", "process", "stopping"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"poissonlab.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from poissonlab.{name} import *", namespace)
    assert set(exported) <= set(namespace)


ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "benchmarks").glob("*.py")
)


def poissonlab_imports(path):
    """(module, name) for every ``from poissonlab... import name`` in the
    file, and (module, None) for every ``import poissonlab...``; read with
    ``ast``, nothing is executed."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module.split(".")[0] == "poissonlab"
        ):
            out += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names
                    if a.name.split(".")[0] == "poissonlab"]
    return out


def test_scripts_are_found():
    names = {p.name for p in SCRIPTS}
    assert {"05_percolation_models.py", "workloads.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_scripts_import_only_existing_names(path):
    missing = []
    for module, name in poissonlab_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert missing == []
