"""Golden traces of the iterative solvers.

``data/golden_traces.json`` records one solve per case: each
:data:`~sketchls.solvers.METHODS` entry, each covariate family, seeds 0-2,
two sketch sizes m, and each run mode.  The modes are a plain run, a run to
``stop_at_dist``, a run without ``beta_ls``, an exact and a far start (for
the methods that read ``beta0``) and a ``tol`` stop (``aopt-ihs``).  For
each case the file holds the iteration count, the status, and the final
iterate and objective at 17 significant digits, with the numpy and BLAS
build that wrote them.  The test recomputes every case.  Counts and statuses
must match exactly.  Floats must match in every bit on the recorded build,
and within a relative ``REL_TOL`` of each value's vector on another.  A
change that moves solver bits regenerates the file, so that its diff names
the moved cases:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from sketchls import DataSpec, LambdaRule, derive_rng, make_dataset
from sketchls.datagen import DISTRIBUTIONS
from sketchls.solvers import METHODS

from test_golden_bench import build

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.json"
#: n is not a power of two, so the SRHT pads
CONFIG = {"n": 500, "d": 6, "seeds": [0, 1, 2], "m": [30, 120], "n_iter": 25,
          "stop_at_dist": 1e-8, "stop_cap": 60, "far": 1e3, "tol": 1e-8}
REL_TOL = 1e-6


@functools.cache
def dataset(dist: str, seed: int):
    return make_dataset(DataSpec(dist, CONFIG["n"], CONFIG["d"], seed))


def modes(method: str) -> list:
    """The run modes of ``method``."""
    names = ["plain", "stop", "no-ls"]
    if "beta0" in METHODS[method].reads:
        names += ["exact", "far"]
    if "tol" in METHODS[method].reads:
        names += ["tol"]
    return names


def run_case(method: str, dist: str, seed: int, m: int, mode: str) -> dict:
    """One solve, as recorded: iterations, status, final objective and
    iterate, each float at 17 significant digits."""
    ds = dataset(dist, seed)
    entry = METHODS[method]
    n_iter = CONFIG["stop_cap"] if mode == "stop" else CONFIG["n_iter"]
    beta0 = {"exact": ds.beta_ls, "far": ds.beta_ls + CONFIG["far"]}.get(mode)
    settings = entry.settings(
        rng=derive_rng(seed, m, sorted(METHODS).index(method)),
        lam=LambdaRule.for_distribution(dist).resolve(ds.x),
        tol=CONFIG["tol"] if mode == "tol" else 0.0,
        beta0=beta0)
    trace = entry.solve(ds.x, ds.y, m, n_iter,
                        beta_ls=None if mode == "no-ls" else ds.beta_ls,
                        stop_at_dist=CONFIG["stop_at_dist"] if mode == "stop" else 0.0,
                        **settings)
    return {"iterations": trace.iterations, "status": trace.status,
            "objective": f"{trace.objective[-1]:.17g}",
            "final": [f"{v:.17g}" for v in trace.final]}


def cases(method: str, dist: str):
    """The case names of ``method`` on ``dist`` with their arguments."""
    for seed in CONFIG["seeds"]:
        for m in CONFIG["m"]:
            for mode in modes(method):
                yield f"{method}/{dist}/seed{seed}/m{m}/{mode}", (method, dist, seed, m, mode)


def compute() -> dict:
    return {name: run_case(*args) for method in METHODS for dist in DISTRIBUTIONS
            for name, args in cases(method, dist)}


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case():
    assert golden()["config"] == CONFIG
    names = {name for method in METHODS for dist in DISTRIBUTIONS
             for name, _ in cases(method, dist)}
    assert set(golden()["cases"]) == names


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_traces_match_the_golden_fixture(method, dist):
    recorded = golden()["build"] == build()
    for name, args in cases(method, dist):
        got, want = run_case(*args), golden()["cases"][name]
        assert (got["iterations"], got["status"]) == (want["iterations"], want["status"]), name
        if recorded:
            assert got == want, name
            continue
        for key in ("objective", "final"):
            g, w = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
            scale = np.abs(w[np.isfinite(w)]).max(initial=0.0)
            np.testing.assert_allclose(g, w, rtol=REL_TOL, atol=REL_TOL * scale,
                                       equal_nan=True, err_msg=name)


if __name__ == "__main__":
    record = {"config": CONFIG, "build": build(), "cases": compute()}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
