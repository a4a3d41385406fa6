"""How often a bench run reads each replication's X in full.

X is checked for finiteness once when :func:`make_dataset` generates it and
once by each public solve, and its Gram matrix is formed once, for
``beta_ls``, whatever the experiment and the worker count.  The counts go
through the names that the library's modules call.
"""

import json

import numpy as np
import pytest

import sketchls.bench
import sketchls.datagen
import sketchls.linalg
import sketchls.precond
import sketchls.sketch
import sketchls.solvers
from sketchls.cli import main

#: the shape of the benchmark's suite on a small t2 dataset
CONFIG = {"dist": "t2", "n": 1024, "d": 8, "m": 50, "n_iter": 10, "reps": 3, "seed": 3,
          "methods": ["acc-ihs", "pw-gradient", "aopt-ihs"],
          "variants": ["zero", "rule", "srht", "identity"],
          "proportions": [0.01, 0.1, 0.4]}
#: public solves per replication
SOLVES = {"converge": len(CONFIG["methods"]), "delta": 0, "ridge": 3, "lambda-sweep": 0}
MODULES = (sketchls.linalg, sketchls.sketch, sketchls.solvers, sketchls.precond,
           sketchls.datagen, sketchls.bench)


def _recording(fn, calls: list):
    def recorded(a, *args, **kwargs):
        calls.append(a)
        return fn(a, *args, **kwargs)

    return recorded


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("op", sorted(SOLVES))
def test_x_read_in_full_once_plus_once_per_solve(op, threads, tmp_path, monkeypatch):
    datasets, scans, grams = [], [], []
    for module in MODULES:
        for name, calls in (("as_matrix", scans), ("_gram", grams)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _recording(getattr(module, name), calls))
    make = sketchls.bench.make_dataset

    def making(spec):
        ds = make(spec)
        datasets.append(ds)
        return ds

    monkeypatch.setattr(sketchls.bench, "make_dataset", making)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    assert main(["bench", op, "--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "--threads", str(threads)]) == 0

    assert len(datasets) == CONFIG["reps"]
    for ds in datasets:
        assert sum(a is ds.x for a in scans) == 1 + SOLVES[op]
        assert sum(a is ds.x for a in grams) == 1
    # nor is a copy of X read in full
    shape = (CONFIG["n"], CONFIG["d"])
    assert sum(np.shape(a) == shape for a in scans) == CONFIG["reps"] * (1 + SOLVES[op])
    assert sum(np.shape(a) == shape for a in grams) == CONFIG["reps"]
