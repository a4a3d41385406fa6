"""The modules form layers, each importing only from the layers below it:
errors < linalg < sketch < precond < datagen < solvers < bench < cli.
``cli`` may also import ``__version__`` from the package itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sketchls"
LAYERS = ("errors", "linalg", "sketch", "precond", "datagen", "solvers", "bench", "cli")


def relative_imports(module):
    """``(source, names)`` of each relative import in ``module``, with a
    source of None for ``from . import names``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [(node.module, tuple(alias.name for alias in node.names))
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_from_lower_layers(module):
    below = LAYERS[: LAYERS.index(module)]
    for source, names in relative_imports(module):
        if source is None:
            assert (module, names) == ("cli", ("__version__",))
        else:
            assert source in below, f"{module} imports {names} from {source}"
