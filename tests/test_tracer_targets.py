"""The benchmark tracer wraps library functions by (module, name).  A
refactor that drops or renames a wrapped name would silently empty the
per-layer metric built on it, so every target must resolve to a callable,
except the four ``sketchls.bench`` solver names that the tracer still lists
but that the benchmark module no longer imports."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: targets known not to resolve; re-pointing the tracer removes them
KNOWN_UNRESOLVED = {f"sketchls.bench.{name}_solve"
                    for name in ("ihs", "acc_ihs", "pw_gradient", "aopt_ihs")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    unresolved = {f"{module}.{attr}" for module, attr, _ in load_tracer().TARGETS
                  if not callable(getattr(importlib.import_module(module), attr, None))}
    assert unresolved == KNOWN_UNRESOLVED
