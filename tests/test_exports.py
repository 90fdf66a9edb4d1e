"""Every name a ``poissonlab`` module lists in ``__all__`` exists, so a star
import of the module works and no removed name lingers in the list."""

import importlib
import pkgutil

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
