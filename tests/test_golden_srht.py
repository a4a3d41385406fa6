"""Golden outputs of the SRHT kernel.

``data/golden_srht.json`` records the outputs of :func:`~sketchls.srht_apply`
with y, of two successive draws of the solvers' X-only sketcher
``_sketcher(x, None, "srht", m, rng)``, and of :func:`~sketchls.fwht`.  The
SRHT cases span row counts on both sides of the powers of two and of the
4096-row chunk, widths of one column, a few columns and two 64-column panels,
and sketch sizes on both sides of the kept-row threshold n_pad / 16.  For
each output the file holds a SHA-256 of its bytes, its norm and its first row
at 17 significant digits, with the numpy and BLAS build that wrote them.  The
test recomputes every case.  The hashes must match on the recorded build;
on another, the norm and first row must match within a relative ``REL_TOL``.
A change that moves SRHT bits regenerates the file:

    PYTHONPATH=src python tests/test_golden_srht.py
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sketchls import derive_rng, fwht, srht_apply
from sketchls.sketch import _next_pow2, _sketcher

from test_golden_bench import build

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_srht.json"
CONFIG = {"n": [1, 3, 100, 511, 512, 513, 3000, 4096, 4097, 5000], "d": [1, 4, 65],
          "fwht": [1, 2, 8, 256, 8192]}
REL_TOL = 1e-12


def sizes(n: int) -> list:
    """The sketch sizes of n rows: 1, n_pad / 16 - 1, n_pad / 16 and n_pad,
    those in 1..n_pad."""
    n_pad = _next_pow2(n)
    return sorted({m for m in (1, n_pad // 16 - 1, n_pad // 16, n_pad) if 1 <= m <= n_pad})


def data(n: int, d: int):
    rng = np.random.default_rng([n, d])
    return rng.standard_normal((n, d)), rng.standard_normal(n)


def record(a: np.ndarray) -> dict:
    """An output's SHA-256, norm and first row (17 significant digits)."""
    a = np.ascontiguousarray(a)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "norm": f"{np.linalg.norm(a):.17g}",
            "first": [f"{v:.17g}" for v in np.atleast_1d(a[0])]}


def run_case(kind: str, n: int, d: int = 0, m: int = 0, order: str = "C") -> list:
    """The records of one case's outputs, on an X in memory ``order``."""
    if kind == "fwht":
        return [record(fwht(np.random.default_rng([n]).standard_normal(n)))]
    x, y = data(n, d)
    x = np.asarray(x, order=order)
    if kind == "srht_apply":
        return [record(a) for a in srht_apply(x, y, m, derive_rng(n, d, m))]
    draw = _sketcher(x, None, "srht", m, derive_rng(n, d, m, 1))
    return [record(draw()[0]) for _ in range(2)]


def cases(kind: str, n: int):
    """The case names of ``kind`` at n rows with their arguments."""
    if kind == "fwht":
        yield f"fwht/n{n}", ("fwht", n)
        return
    for d in CONFIG["d"]:
        for m in sizes(n):
            yield f"{kind}/n{n}/d{d}/m{m}", (kind, n, d, m)


#: every (kind, n) group of cases
GROUPS = [(kind, n) for kind in ("srht_apply", "sketcher") for n in CONFIG["n"]] + [
    ("fwht", n) for n in CONFIG["fwht"]]


def compute() -> dict:
    return {name: run_case(*args) for group in GROUPS for name, args in cases(*group)}


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case():
    assert golden()["config"] == CONFIG
    assert set(golden()["cases"]) == {name for group in GROUPS for name, _ in cases(*group)}


@pytest.mark.parametrize("kind,n", GROUPS)
def test_srht_matches_the_golden_fixture(kind, n):
    recorded = golden()["build"] == build()
    for name, args in cases(kind, n):
        got, want = run_case(*args), golden()["cases"][name]
        assert len(got) == len(want), name
        if recorded:
            assert got == want, name
            continue
        for g, w in zip(got, want):
            norm = float(w["norm"])
            np.testing.assert_allclose(float(g["norm"]), norm, rtol=REL_TOL, err_msg=name)
            np.testing.assert_allclose(np.asarray(g["first"], dtype=float),
                                       np.asarray(w["first"], dtype=float),
                                       rtol=REL_TOL, atol=REL_TOL * norm, err_msg=name)


@pytest.mark.parametrize("kind,n", [group for group in GROUPS if group[0] != "fwht"])
def test_srht_bits_do_not_depend_on_the_layout_of_x(kind, n):
    # a column-major X must give the bytes of the row-major one
    for name, args in cases(kind, n):
        assert run_case(*args, order="F") == run_case(*args), name


if __name__ == "__main__":
    fixture = {"config": CONFIG, "build": build(), "cases": compute()}
    GOLDEN.write_text(json.dumps(fixture, indent=1) + "\n")
