"""Every name the package exports resolves: a deleted name must leave each export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import afsharsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(afsharsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_is_defined(name):
    module = importlib.import_module(f"afsharsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve_to_public_names():
    tree = ast.parse(Path(afsharsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"afsharsim.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(afsharsim, alias.name) is getattr(module, alias.name)
