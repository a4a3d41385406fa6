"""The public surface stays consistent: every ``__all__`` entry exists, every
name the package re-exports is public in its own module, and removed names
stay removed."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sketchls

MODULES = sorted(f"sketchls.{info.name}" for info in pkgutil.iter_modules(sketchls.__path__))

#: names taken out of the public surface; none may come back as an attribute
REMOVED = {
    "sketchls.linalg": ["orthonormal_colbasis", "spectral_norm"],
    "sketchls.datagen": ["gen_covariates"],
    "sketchls.sketch": ["mask_to_sketch"],
    "sketchls.precond": ["pencil_cond"],
}


def public_names(module):
    """``__all__`` when the module has one, else the public names it defines."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]


def reexports():
    """``(module, name)`` for each name ``sketchls/__init__.py`` imports from a
    submodule."""
    tree = ast.parse(Path(inspect.getfile(sketchls)).read_text())
    return [(f"sketchls.{node.module}", alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)  # breaks on a stale __all__ entry
    assert set(public_names(module)) <= set(namespace)


def test_reexports_are_public_in_their_module():
    exports = reexports()
    assert exports
    stray = [(module, name) for module, name in exports
             if name not in public_names(importlib.import_module(module))]
    assert stray == []
    assert all(hasattr(sketchls, name) for _, name in exports)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_stay_removed(module, name):
    assert not hasattr(sketchls, name)
    assert not hasattr(importlib.import_module(module), name)
