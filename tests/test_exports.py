"""Every public name the package declares resolves: each module's
``__all__`` entries, and each name ``cachelab/__init__.py`` imports from its
modules.  A function removed from a module must leave both lists with it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cachelab

# ``__main__`` runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(cachelab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cachelab.{name}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(cachelab.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in imported} <= set(MODULES)
    for module, name in imported:
        source = importlib.import_module(f"cachelab.{module}")
        assert getattr(cachelab, name) is getattr(source, name), (module, name)
