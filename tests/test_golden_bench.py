"""Golden outputs of the six ``bench`` experiments on one small t2 config.

``data/golden_bench/`` holds each experiment's CSV, with the wall-clock
``mean_seconds`` column of ``time.csv`` blanked, and ``golden.json`` holds
the config, each manifest's ``config``, ``unread`` and ``meta``, and the
numpy and BLAS build that wrote them.  The test reruns every experiment at
``--threads`` 1 and 2.  On the recorded build each CSV must match byte for
byte; on another build a float cell may differ by ``REL_TOL`` (or by
``ABS_TOL``, below which a squared error is roundoff), and every other cell
must match exactly.  A change that moves output bits regenerates the
fixture, so that its diff names the moved rows:

    PYTHONPATH=src python tests/test_golden_bench.py
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sketchls.cli import BENCH_CSV, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_bench"
CONFIG = {"dist": "t2", "n": 1024, "d": 8, "m": 50, "n_iter": 10, "reps": 4, "seed": 3,
          "methods": ["ihs", "acc-ihs", "pw-gradient", "aopt-ihs"],
          "variants": ["zero", "rule", "srht", "identity"],
          "proportions": [0.01, 0.1, 0.4], "n_grid": [1024, 2048]}
REL_TOL, ABS_TOL = 1e-6, 1e-24


def build() -> dict:
    """The numpy version, BLAS build and SIMD extensions in use."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": info["SIMD Extensions"]["found"]}


def _masked(text: str) -> str:
    """``text`` with its ``mean_seconds`` column, if any, blanked."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if "mean_seconds" not in rows[0]:
        return text
    col = rows[0].index("mean_seconds")
    for row in rows[1:]:
        row[col] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


def run_all(tmp: Path, threads: int):
    """Every experiment's masked CSV text by file name, and the ``config``,
    ``unread`` and ``meta`` of its manifest by experiment."""
    path = tmp / "config.json"
    path.write_text(json.dumps(CONFIG))
    tables, manifests = {}, {}
    for exp, (name, *_) in BENCH_CSV.items():
        out = tmp / exp
        assert main(["bench", exp, "--config", str(path), "--out-dir", str(out),
                     "--threads", str(threads)]) == 0
        tables[name] = _masked((out / name).read_bytes().decode())
        record = json.loads((out / f"bench_{exp.replace('-', '_')}_manifest.json").read_text())
        manifests[exp] = {key: record[key] for key in ("config", "unread", "meta")}
    return tables, manifests


def _cells_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    except ValueError:
        return False


@pytest.mark.parametrize("threads", [1, 2])
def test_bench_outputs_match_the_golden_fixture(tmp_path, threads):
    golden = json.loads((GOLDEN / "golden.json").read_text())
    assert golden["config"] == CONFIG
    tables, manifests = run_all(tmp_path, threads)
    assert manifests == golden["manifests"]
    for name, text in tables.items():
        want = (GOLDEN / name).read_bytes().decode()
        if golden["build"] == build():
            assert text == want, name
            continue
        got_rows, want_rows = (list(csv.reader(io.StringIO(t, newline=""))) for t in (text, want))
        assert [len(row) for row in got_rows] == [len(row) for row in want_rows], name
        for got_row, want_row in zip(got_rows, want_rows):
            assert all(map(_cells_close, got_row, want_row)), (name, got_row, want_row)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tables, manifests = run_all(Path(tmp), threads=1)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (GOLDEN / name).write_bytes(text.encode())
    record = {"config": CONFIG, "build": build(), "manifests": manifests}
    (GOLDEN / "golden.json").write_text(json.dumps(record, indent=2) + "\n")
