"""Static hygiene of the package source, checked with the standard library.

No linter is a dependency of the project, so the two rules it would
enforce here are stated directly: a module-level import is used, and
every name in a module's __all__ is bound.
"""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsu2"
# the package __init__ imports only to re-export, so it is not checked
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(getattr(importlib.import_module(f"qsu2.{path.stem}"),
                        "__all__", ()))
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(f"qsu2.{path.stem}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []
