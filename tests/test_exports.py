"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dlforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(dlforge.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("dlforge." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(dlforge.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module, name in reexports:
        source = importlib.import_module("dlforge." + module)
        assert getattr(dlforge, name) is getattr(source, name), name

