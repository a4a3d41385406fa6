import csv
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sketchls.bench
import sketchls.cli
from sketchls import (
    DataSpec,
    ExperimentConfig,
    LambdaRule,
    center,
    full_ls,
    lambda_sweep,
    make_dataset,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
    row_sq_norms,
)
from sketchls.bench import DELTA_VARIANTS
from sketchls.cli import (_CONFIG_KEYS, BENCH_CSV, _atomic_write_text, _fmt, _Parser,
                          _resolve_config, main, read_matrix_csv, read_vector_csv)
from sketchls.errors import ConfigError

FIXTURES = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_integer_pair(tmp_path, offset=0):
    """A 64 x 3 integer X and y whose columns sum to exactly zero, shifted by
    ``offset``; with offset 0 the pair is centered and centering it again
    leaves every bit in place."""
    rng = np.random.default_rng(12)
    z = rng.integers(-9, 10, size=(64, 4)).astype(np.float64)
    z[-1] -= z.sum(axis=0)
    z += offset
    x_path, y_path = tmp_path / "X.csv", tmp_path / "y.csv"
    np.savetxt(x_path, z[:, :3], delimiter=",", header="a,b,c", comments="")
    np.savetxt(y_path, z[:, 3], header="y", comments="")
    return z[:, :3], z[:, 3], x_path, y_path


def test_failed_atomic_write_leaves_the_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("kept\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no encoding
        _atomic_write_text(str(target), "\ud800")
    assert target.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_outputs_get_the_permissions_of_a_plain_open(tmp_path, umask_022):
    # the temporary file of each write used to keep mkstemp's 0o600
    gen, solve, bench = tmp_path / "gen", tmp_path / "solve", tmp_path / "bench"
    assert run_cli("gen", "--dist", "normal", "--n", "64", "--d", "3",
                   "--out-dir", str(gen)) == 0
    assert run_cli("solve", "--x", str(gen / "X.csv"), "--y", str(gen / "y.csv"),
                   "--method", "ihs", "--m", "16", "--n-iter", "2", "--out-dir", str(solve)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist": "normal", "n": 64, "d": 3, "m": 16, "reps": 2,
                               "variants": ["identity"]}))
    assert run_cli("bench", "delta", "--config", str(cfg), "--out-dir", str(bench)) == 0
    for out in (gen / "X.csv", gen / "gen_manifest.json", solve / "trace.csv",
                solve / "solve_manifest.json", bench / "delta.csv",
                bench / "bench_delta_manifest.json"):
        assert stat.S_IMODE(out.stat().st_mode) == 0o644, out
    assert sorted(os.listdir(bench)) == ["bench_delta_manifest.json", "delta.csv"]


class TestGen:
    def test_shapes_and_schema(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli(
            "gen", "--dist", "normal", "--n", "1024", "--d", "10",
            "--seed", "7", "--out-dir", str(out),
        ) == 0
        x = read_matrix_csv(out / "X.csv")
        y = read_vector_csv(out / "y.csv")
        beta = read_vector_csv(out / "beta_star.csv")
        assert x.shape == (1024, 10)
        assert y.shape == (1024,)
        assert beta.shape == (10,)
        manifest = json.loads((out / "gen_manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["seed"] == 7
        assert manifest["prng_algorithm"] == "numpy-pcg64"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("gen", "--dist", "mixture", "--n", "256", "--d", "3",
                    "--seed", "5", "--out-dir", str(out))
        for name in ("X.csv", "y.csv", "beta_star.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gen", "--dist", "normal", "--n", "16", "--d", "2",
                       "--seed", "-1", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_x_is_written_a_row_at_a_time(self, tmp_path):
        # X.csv used to be formatted whole in memory: a peak of 13.9 times
        # the bytes of X at this size
        n, d = 1 << 14, 50
        tracemalloc.start()
        try:
            assert run_cli("gen", "--dist", "normal", "--n", str(n), "--d", str(d),
                           "--out-dir", str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * d * 8

    def test_overflowing_sigma_noise_writes_nothing(self, tmp_path, capsys):
        # y.csv used to hold -inf, with exit 0
        out = tmp_path / "g"
        assert run_cli("gen", "--dist", "normal", "--n", "64", "--d", "3",
                       "--sigma-noise", "1e308", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == "error: sigma_noise = 1e+308 overflows the response\n"
        assert not out.exists()

    def test_square_data_names_the_rank(self, tmp_path, capsys):
        # centering leaves rank n - 1 < d: this used to fail in make_dataset
        # with "matrix is not positive definite"
        out = tmp_path / "g"
        assert run_cli("gen", "--dist", "normal", "--n", "4", "--d", "4",
                       "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == "error: centered X has rank at most n - 1 = 3 < d = 4\n"
        assert not out.exists()

    def test_invalid_distribution_flag(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sketchls.cli", "gen", "--dist", "cauchy",
             "--n", "16", "--d", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "error:" in proc.stderr
        assert "usage:" in proc.stderr


class TestSolve:
    def test_full_round_trip_matches_memory(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "512", "--d", "4",
                "--seed", "9", "--out-dir", str(out))
        run_dir = tmp_path / "run"
        assert run_cli(
            "solve", "--x", str(out / "X.csv"), "--y", str(out / "y.csv"),
            "--method", "full", "--out-dir", str(run_dir),
        ) == 0
        beta_csv = read_vector_csv(run_dir / "beta.csv")
        ds = make_dataset(DataSpec("normal", 512, 4, seed=9))
        assert np.linalg.norm(beta_csv - ds.beta_ls) <= 1e-12 * np.linalg.norm(ds.beta_ls)
        rows = read_rows(run_dir / "trace.csv")
        assert len(rows) == 1
        assert rows[0]["iter"] == "0"
        assert float(rows[0]["dist_to_ls"]) == 0.0

    def test_aopt_ihs_on_food_fixture(self, tmp_path):
        run_dir = tmp_path / "food"
        assert run_cli(
            "solve", "--x", str(FIXTURES / "food_x.csv"),
            "--y", str(FIXTURES / "food_y.csv"),
            "--method", "aopt-ihs", "--m", "50", "--n-iter", "25",
            "--out-dir", str(run_dir),
        ) == 0
        rows = read_rows(run_dir / "trace.csv")
        dists = [float(r["dist_to_ls"]) for r in rows]
        assert dists[-1] < dists[0] * 1e-3  # converging toward the exact fit
        objs = [float(r["objective"]) for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:]))

    def test_randomized_methods_run(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "256", "--d", "3",
                "--seed", "1", "--out-dir", str(out))
        for method in ("ihs", "acc-ihs", "pw-gradient"):
            run_dir = tmp_path / method
            assert run_cli(
                "solve", "--x", str(out / "X.csv"), "--y", str(out / "y.csv"),
                "--method", method, "--m", "64", "--n-iter", "8",
                "--out-dir", str(run_dir),
            ) == 0
            rows = read_rows(run_dir / "trace.csv")
            assert float(rows[-1]["dist_to_ls"]) < float(rows[0]["dist_to_ls"])

    def test_length_mismatch_is_parse_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "128", "--d", "3",
                "--seed", "2", "--out-dir", str(out))
        short = tmp_path / "short.csv"
        lines = (out / "y.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:50]) + "\n")
        code = run_cli("solve", "--x", str(out / "X.csv"), "--y", str(short),
                       "--method", "full", "--out-dir", str(tmp_path / "r"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_cell_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\r\n1.0,2.0\r\n3.0,oops\r\n")
        ybad = tmp_path / "y.csv"
        ybad.write_text("y\r\n1.0\r\n2.0\r\n")
        code = run_cli("solve", "--x", str(bad), "--y", str(ybad),
                       "--method", "full", "--out-dir", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err

    def test_scale_flag_standardizes_columns(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen", "--dist", "lognormal", "--n", "256", "--d", "3",
                "--seed", "4", "--out-dir", str(out))
        plain = tmp_path / "plain"
        scaled = tmp_path / "scaled"
        run_cli("solve", "--x", str(out / "X.csv"), "--y", str(out / "y.csv"),
                "--method", "full", "--out-dir", str(plain))
        run_cli("solve", "--x", str(out / "X.csv"), "--y", str(out / "y.csv"),
                "--method", "full", "--scale", "--out-dir", str(scaled))
        ds = make_dataset(DataSpec("lognormal", 256, 3, seed=4))
        beta_scaled = read_vector_csv(scaled / "beta.csv")
        expected = full_ls(ds.x / ds.x.std(axis=0), ds.y)
        assert np.linalg.norm(beta_scaled - expected) <= 1e-10 * np.linalg.norm(expected)
        assert not np.allclose(read_vector_csv(plain / "beta.csv"), beta_scaled)

    def test_nonfinite_cell_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\r\n1.0,2.0\r\n3.0,inf\r\n")
        ybad = tmp_path / "y.csv"
        ybad.write_text("y\r\n1.0\r\n2.0\r\n")
        code = run_cli("solve", "--x", str(bad), "--y", str(ybad),
                       "--method", "full", "--out-dir", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "row 3" in err and "not finite" in err

    def test_missing_m_for_sketched_method(self, tmp_path, capsys):
        out = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "64", "--d", "2",
                "--seed", "3", "--out-dir", str(out))
        code = run_cli("solve", "--x", str(out / "X.csv"), "--y", str(out / "y.csv"),
                       "--method", "ihs", "--out-dir", str(tmp_path / "r"))
        assert code == 1
        assert "--m is required" in capsys.readouterr().err

    @pytest.mark.parametrize("x_text, y_text, bad, message", [
        ("", "y\r\n1\r\n", "X", "empty file"),
        ("a,b\r\n1,2\r\n3\r\n", "y\r\n1\r\n2\r\n", "X", "row 3 has 1 fields, expected 2"),
        ("a,b\r\n", "y\r\n1\r\n", "X", "no data rows"),
        ("a\r\n1\r\n2\r\n", "y,z\r\n1,2\r\n3,4\r\n", "y",
         "expected a single column, found 2"),
    ])
    def test_malformed_csv_names_the_file(self, tmp_path, capsys, x_text, y_text, bad, message):
        paths = {"X": tmp_path / "X.csv", "y": tmp_path / "y.csv"}
        paths["X"].write_text(x_text)
        paths["y"].write_text(y_text)
        out = tmp_path / "r"
        assert run_cli("solve", "--x", str(paths["X"]), "--y", str(paths["y"]),
                       "--method", "full", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"error: {paths[bad]}: {message}\n"
        assert not out.exists()

    def test_scale_on_a_constant_column_names_it(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "X.csv", tmp_path / "y.csv"
        x_path.write_text("a,b\r\n1,5\r\n2,5\r\n4,5\r\n")
        y_path.write_text("y\r\n1\r\n2\r\n3\r\n")
        out = tmp_path / "r"
        assert run_cli("solve", "--x", str(x_path), "--y", str(y_path), "--method", "full",
                       "--scale", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {x_path}: column 2 is constant, cannot scale\n")
        assert not out.exists()


    @pytest.mark.parametrize("n_iter, tol, code", [
        ("-1", "0", 1), ("20", "-0.5", 1), ("20", "nan", 1), ("20", "inf", 1), ("0", "0", 0),
    ])
    def test_n_iter_and_tol_must_not_be_negative(self, tmp_path, capsys, n_iter, tol, code):
        data = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "128", "--d", "3", "--out-dir", str(data))
        out = tmp_path / "r"
        assert run_cli("solve", "--x", str(data / "X.csv"), "--y", str(data / "y.csv"),
                       "--method", "aopt-ihs", "--m", "32", "--n-iter", n_iter, "--tol", tol,
                       "--out-dir", str(out)) == code
        if code:
            assert capsys.readouterr().err.startswith("error: --")
            assert not out.exists()
        else:
            assert len(read_rows(out / "trace.csv")) == 1

    @pytest.mark.parametrize("flags, error", [
        (["--m", "32", "--lam", "nan"], "error: --lam"),
        (["--m", "32", "--lam", "inf"], "error: --lam"),
        (["--m", "32", "--lam", "-1"], "error: --lam"),
        ([], "error: --m is required"),
        (["--m", "0"], "error: --m must be >= 1, got 0"),
        (["--m", "-3"], "error: --m must be >= 1, got -3"),
        (["--m", "32", "--seed", "-1"], "error: --seed must be >= 0, got -1"),
        (["--m", "32", "--lam", "explicit"], "error: --lam"),
        (["--m", "32", "--lam", "heavy"], "error: --lam"),
    ])
    def test_flags_checked_before_reading_data(self, tmp_path, capsys, flags, error):
        # the data files do not exist: a flag checked after reading them
        # would report the missing file instead
        out = tmp_path / "r"
        assert run_cli("solve", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                       "--method", "aopt-ihs", *flags, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()

    def test_no_center_on_centered_data_changes_no_byte(self, tmp_path):
        _, _, x_path, y_path = write_integer_pair(tmp_path)
        beta = {}
        for name, flags in (("default", []), ("raw", ["--no-center"])):
            assert run_cli("solve", "--x", str(x_path), "--y", str(y_path),
                           "--method", "aopt-ihs", "--m", "16", "--n-iter", "5", *flags,
                           "--out-dir", str(tmp_path / name)) == 0
            beta[name] = (tmp_path / name / "beta.csv").read_bytes()
        assert beta["raw"] == beta["default"]

    def test_no_center_fits_the_raw_pair(self, tmp_path):
        x, y, x_path, y_path = write_integer_pair(tmp_path, offset=3)
        for name, flags in (("default", []), ("raw", ["--no-center"])):
            assert run_cli("solve", "--x", str(x_path), "--y", str(y_path),
                           "--method", "full", *flags, "--out-dir", str(tmp_path / name)) == 0
        raw = read_vector_csv(tmp_path / "raw" / "beta.csv")
        np.testing.assert_array_equal(raw, full_ls(x, y))
        assert not np.allclose(read_vector_csv(tmp_path / "default" / "beta.csv"), raw)

    def test_heavy_tailed_rule_is_its_explicit_ridge(self, tmp_path):
        data = tmp_path / "data"
        run_cli("gen", "--dist", "lognormal", "--n", "256", "--d", "3",
                "--seed", "4", "--out-dir", str(data))
        x, _ = center(read_matrix_csv(data / "X.csv"), read_vector_csv(data / "y.csv"))
        lam = 0.4 * float(row_sq_norms(x).sum())
        beta = {}
        runs = (("rule", ["--lam", "heavy-tailed"]), ("lam", ["--lam", repr(lam)]),
                ("default", []))
        for name, flags in runs:
            assert run_cli("solve", "--x", str(data / "X.csv"), "--y", str(data / "y.csv"),
                           "--method", "aopt-ihs", "--m", "32", "--n-iter", "5", *flags,
                           "--out-dir", str(tmp_path / name)) == 0
            beta[name] = (tmp_path / name / "beta.csv").read_bytes()
        assert beta["rule"] == beta["lam"]
        assert beta["rule"] != beta["default"]  # the default rule is concentrated

    @pytest.mark.parametrize("lam", ["concentrated", "0.5"])
    def test_manifest_records_the_ridge_weight(self, tmp_path, lam):
        x, y, x_path, y_path = write_integer_pair(tmp_path, offset=3)
        out = tmp_path / "out"
        assert run_cli("solve", "--x", str(x_path), "--y", str(y_path), "--method", "aopt-ihs",
                       "--m", "8", "--n-iter", "2", "--lam", lam, "--out-dir", str(out)) == 0
        manifest = json.loads((out / "solve_manifest.json").read_text())
        weight = 0.5 if lam == "0.5" else 0.1 * float(row_sq_norms(center(x, y)[0]).sum())
        assert manifest["ridge_weight"] == weight
        assert manifest["config"]["lam"] == (0.5 if lam == "0.5" else lam)

    @pytest.mark.parametrize("method, m, code", [
        ("aopt-ihs", "100", 0), ("aopt-ihs", "101", 1),
        ("ihs", "128", 0), ("ihs", "129", 1), ("full", "129", 0),
    ])
    def test_m_at_most_the_rows_it_selects_from(self, tmp_path, capsys, method, m, code):
        # aopt-ihs selects from the 100 rows, the SRHT from the 128 padded rows
        data = tmp_path / "data"
        run_cli("gen", "--dist", "normal", "--n", "100", "--d", "3", "--out-dir", str(data))
        out = tmp_path / "r"
        assert run_cli("solve", "--x", str(data / "X.csv"), "--y", str(data / "y.csv"),
                       "--method", method, "--m", m, "--n-iter", "2",
                       "--out-dir", str(out)) == code
        if code:
            bound = 100 if method == "aopt-ihs" else 128
            assert capsys.readouterr().err.startswith(f"error: --m must be <= {bound}")
            assert not out.exists()


#: the flags each solve method reads besides the data's, as its manifest
#: records them
SOLVE_READS = {
    "full": set(),
    "ihs": {"m", "n_iter", "seed"},
    "acc-ihs": {"m", "n_iter", "seed"},
    "pw-gradient": {"m", "n_iter", "seed"},
    "aopt-ihs": {"m", "n_iter", "lam", "tol"},
}


@pytest.mark.parametrize("method", sorted(SOLVE_READS))
def test_solve_manifest_records_only_what_the_method_reads(tmp_path, method):
    data = tmp_path / "data"
    run_cli("gen", "--dist", "normal", "--n", "128", "--d", "3", "--out-dir", str(data))
    base = ["--x", str(data / "X.csv"), "--y", str(data / "y.csv"), "--method", method,
            "--m", "64", "--n-iter", "3"]
    flags = {"lam": "7", "tol": "1e-3", "seed": "4"}
    unread = [arg for flag, value in flags.items() if flag not in SOLVE_READS[method]
              for arg in (f"--{flag}", value)]
    runs = {"plain": [], "unread": unread,
            "all": [arg for flag, value in flags.items() for arg in (f"--{flag}", value)]}
    for name, extra in runs.items():
        assert run_cli("solve", *base, *extra, "--out-dir", str(tmp_path / name)) == 0
    record = json.loads((tmp_path / "all" / "solve_manifest.json").read_text())
    assert set(record["config"]) == {"x", "y", "method", "center", "scale"} | SOLVE_READS[method]
    assert ("ridge_weight" in record) == (method == "aopt-ihs")
    if method == "aopt-ihs":
        assert (record["ridge_weight"], record["config"]["lam"]) == (7.0, 7.0)
    for name in ("beta.csv", "trace.csv"):  # a flag the method does not read moves no byte
        unread_run, plain_run = (tmp_path / run / name for run in ("unread", "plain"))
        assert unread_run.read_bytes() == plain_run.read_bytes()


#: each bench experiment's CSV and the library call it must reproduce, for the
#: config written by TestBench.test_csv_matches_library_rows
_DATA = DataSpec("normal", 256, 3, seed=5)
_LIBRARY_RUNS = {
    "init": ("init_mse.csv", lambda cfg: run_init_comparison(
        [128, 256], 3, 16, 3, 3, dist="normal", seed=5)),
    "converge": ("converge_mse.csv", run_convergence),
    "delta": ("delta.csv", lambda cfg: run_delta_table(cfg, ["rule", "srht", "identity"])),
    "time": ("time.csv", run_time_to_precision),
    "ridge": ("ridge_mse.csv", run_ridge_ablation),
    "lambda-sweep": ("lambda_sweep.csv", lambda cfg: lambda_sweep(cfg, [0.05, 0.5])),
}

#: the library runners that ``sketchls.cli`` looks up by name when it runs
_RUNNERS = ("run_init_comparison", "run_convergence", "run_delta_table",
            "run_time_to_precision", "run_ridge_ablation", "lambda_sweep")


class TestBench:
    def write_cfg(self, tmp_path, **overrides):
        cfg = {"dist": "normal", "n": 512, "d": 4, "m": 128, "n_iter": 5,
               "reps": 4, "seed": 11}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_converge_schema(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli("bench", "converge", "--config", str(cfg),
                       "--out-dir", str(out)) == 0
        rows = read_rows(out / "converge_mse.csv")
        assert set(rows[0]) == {"method", "iter", "mse1", "mse2", "failures"}
        manifest = json.loads((out / "bench_converge_manifest.json").read_text())
        assert manifest["config"]["m"] == 128

    def test_missing_m_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist": "normal", "n": 64, "d": 2,
                                   "n_iter": 3, "reps": 2}))
        code = run_cli("bench", "converge", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "'m'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, sketch="srht")
        code = run_cli("bench", "converge", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "sketch" in capsys.readouterr().err

    def test_time_status_column(self, tmp_path):
        cfg = self.write_cfg(tmp_path, methods=["ihs", "aopt-ihs"])
        out = tmp_path / "out"
        assert run_cli("bench", "time", "--config", str(cfg),
                       "--out-dir", str(out)) == 0
        rows = read_rows(out / "time.csv")
        assert all(r["status"] in ("ok", "diverge", "cap") for r in rows)

    def test_delta_and_sweep_and_ridge_and_init(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, variants=["zero", "rule", "srht", "identity"])
        assert run_cli("bench", "delta", "--config", str(cfg), "--out-dir", str(out)) == 0
        rows = read_rows(out / "delta.csv")
        ident = [r for r in rows if r["variant"] == "identity"]
        assert abs(float(ident[0]["delta_mean"])) <= 1e-9

        cfg = self.write_cfg(tmp_path, proportions=[0.1, 0.5])
        assert run_cli("bench", "lambda-sweep", "--config", str(cfg),
                       "--out-dir", str(out)) == 0
        assert len(read_rows(out / "lambda_sweep.csv")) == 2

        cfg = self.write_cfg(tmp_path)
        assert run_cli("bench", "ridge", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert {r["variant"] for r in read_rows(out / "ridge_mse.csv")} == {
            "ridged", "raw", "identity",
        }

        cfg = self.write_cfg(tmp_path, n_grid=[256, 512], m=32, n_iter=4)
        assert run_cli("bench", "init", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert {r["estimator"] for r in read_rows(out / "init_mse.csv")} == {
            "full", "srht-cs", "lev-cs", "aopt-cs",
        }

    @pytest.mark.parametrize("field, value", [("n_iter", -1), ("reps", 0)])
    def test_init_sizes_below_one_rejected(self, tmp_path, capsys, field, value):
        cfg = self.write_cfg(tmp_path, **{"n_grid": [256], "m": 32, "n_iter": 4, field: value})
        out = tmp_path / "out"
        code = run_cli("bench", "init", "--config", str(cfg), "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (out / "init_mse.csv").exists()

    @pytest.mark.parametrize("experiment", ["converge", "init"])
    def test_negative_seed_names_the_seed(self, tmp_path, capsys, experiment):
        cfg = self.write_cfg(tmp_path, n_grid=[256], m=32, n_iter=4, seed=-1)
        out = tmp_path / "out"
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, field, value", [
        ("time", "tol", 0),
        ("time", "tol", -1),
        ("time", "tol", float("nan")),
        ("converge", "methods", []),
        ("converge", "methods", ["ihs", "ihs"]),
        ("delta", "variants", []),
        ("delta", "variants", ["zero", "zero"]),
        ("delta", "variants", ["gaussian"]),
        ("delta", "variants", "zero"),
        ("lambda-sweep", "proportions", []),
        ("lambda-sweep", "proportions", [0.1, 0.1]),
        ("lambda-sweep", "proportions", "12"),
    ])
    def test_bad_config_value_writes_nothing(self, tmp_path, capsys, experiment, field, value):
        cfg = self.write_cfg(tmp_path, **{field: value})
        out = tmp_path / "out"
        code = run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("experiment", ["converge", "init"])
    @pytest.mark.parametrize("field, value", [
        ("dist", 5), ("n", "512"), ("d", [4]), ("m", None), ("n_iter", True),
        ("reps", "x"), ("seed", {}), ("sigma_noise", "3"), ("lambda_rule", [0.1]),
        ("lambda_rule", "explicit"), ("methods", 5), ("methods", "ihs"),
        ("methods", [["ihs"]]), ("trim", None), ("tol", "1e-10"), ("init_policy", 1),
        ("iter_cap", "500"), ("n_grid", 64), ("n_grid", "64"), ("n_grid", ["256"]),
        ("proportions", 0.5), ("variants", [0]), ("sigma_noise", float("nan")),
        ("lambda_rule", float("nan")), ("lambda_rule", -5), ("tol", float("inf")),
        ("proportions", [float("nan")]), ("m", 32.7), ("reps", 2.5), ("n_grid", [256.5]),
    ])
    def test_wrong_json_type_names_key(self, tmp_path, capsys, experiment, field, value):
        cfg = self.write_cfg(tmp_path, **{"n_grid": [256], "m": 32, "n_iter": 4, field: value})
        out = tmp_path / "out"
        code = run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid {field}: {json.dumps(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key, listed, default", [
        ("delta", "variants", ["zero", "srht", "identity"], list(DELTA_VARIANTS)),
        ("lambda-sweep", "proportions", [0.05, 0.5], [round(0.1 * k, 1) for k in range(1, 11)]),
    ])
    def test_manifest_records_the_list_that_ran(self, tmp_path, experiment, key, listed,
                                                 default):
        manifest = f"bench_{experiment.replace('-', '_')}_manifest.json"
        csv_name = _LIBRARY_RUNS[experiment][0]
        base = {"n": 256, "n_iter": 2, "reps": 2, "m": 32}
        first, again = tmp_path / "first", tmp_path / "again"
        cfg = self.write_cfg(tmp_path, **base, **{key: listed})
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(first)) == 0
        recorded = json.loads((first / manifest).read_text())["config"][key]
        assert recorded == listed
        # a rerun with the manifest's list reproduces the CSV
        cfg = self.write_cfg(tmp_path, **base, **{key: recorded})
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(again)) == 0
        assert (again / csv_name).read_bytes() == (first / csv_name).read_bytes()
        # without the key the default list runs, and is recorded
        cfg = self.write_cfg(tmp_path, **base)
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(again)) == 0
        assert json.loads((again / manifest).read_text())["config"][key] == default

    @pytest.mark.parametrize("experiment", list(_LIBRARY_RUNS))
    def test_csv_matches_library_rows(self, tmp_path, experiment):
        cfg = self.write_cfg(
            tmp_path, n=_DATA.n, d=_DATA.d, seed=_DATA.seed, m=16 if experiment == "init" else 32,
            n_iter=3, reps=3, methods=["ihs", "aopt-ihs"], iter_cap=40,
            variants=["rule", "srht", "identity"], proportions=[0.05, 0.5], n_grid=[128, 256],
        )
        out = tmp_path / "out"
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(out)) == 0
        name, run = _LIBRARY_RUNS[experiment]
        rows, _ = run(ExperimentConfig(
            _DATA, 32, 3, 3, LambdaRule("concentrated"), methods=("ihs", "aopt-ihs"),
            iter_cap=40,
        ))
        with open(out / name, newline="") as handle:
            header, *body = csv.reader(handle)
        expected = [[_fmt(row[key]) for key in header] for row in rows]
        assert header == list(rows[0])
        if experiment == "time":  # wall-clock seconds are not reproducible
            col = header.index("mean_seconds")
            for row in body + expected:
                row[col] = row[col] != ""
        assert body == expected

    def test_aopt_for_all_flag(self, tmp_path):
        cfg = self.write_cfg(tmp_path, methods=["ihs", "aopt-ihs"])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out1))
        cfg = self.write_cfg(tmp_path, methods=["ihs", "aopt-ihs"], init_policy="aopt-for-all")
        run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out2))
        at0 = lambda out: {
            r["method"]: float(r["mse2"])
            for r in read_rows(out / "converge_mse.csv")
            if r["iter"] == "0"
        }
        assert at0(out1)["ihs"] > at0(out2)["ihs"]  # shared initializer helps

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found: {path}"),
        ("{", "config file {path} is not valid JSON"),
        ("[1, 2]", "config file {path} does not hold a JSON object"),
    ])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert run_cli("bench", "converge", "--config", str(path), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path))
        assert not out.exists()

    @pytest.mark.parametrize("value", [None, "pencil"])
    def test_lambda_rule_null_or_unknown_profile_rejected(self, tmp_path, capsys, value):
        cfg = self.write_cfg(tmp_path, lambda_rule=value)
        out = tmp_path / "out"
        assert run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"error: invalid lambda_rule: {json.dumps(value)}\n"
        assert not out.exists()

    def test_lambda_rule_profile_name(self, tmp_path):
        base = {"n": 256, "n_iter": 2, "reps": 2, "m": 32, "methods": ["aopt-ihs"]}
        csv_bytes = {}
        for rule in ("heavy-tailed", "heavy_tailed", "concentrated"):
            out = tmp_path / rule
            cfg = self.write_cfg(tmp_path, **base, lambda_rule=rule)
            assert run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out)) == 0
            manifest = json.loads((out / "bench_converge_manifest.json").read_text())
            assert manifest["config"]["lambda_rule"] == rule
            csv_bytes[rule] = (out / "converge_mse.csv").read_bytes()
        assert csv_bytes["heavy-tailed"] == csv_bytes["heavy_tailed"]
        assert csv_bytes["heavy-tailed"] != csv_bytes["concentrated"]

    @pytest.mark.parametrize("argv", [
        ["bench", "converge", "--config", "x.json", "--seed", "1"],
        ["bench", "converge", "--config", "x.json", "--init", "aopt-for-all"],
        ["gen", "--dist", "normal", "--n", "16", "--d", "2", "--threads", "2"],
        ["solve", "--x", "X.csv", "--y", "y.csv", "--method", "full",
         "--lam-rule", "concentrated"],
    ])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: " + argv[-2] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", list(BENCH_CSV))
    def test_manifest_config_reruns_the_command(self, tmp_path, experiment):
        """The manifest's config, saved as a config file, reruns the command
        to the same CSV bytes, and it names every key the command reads, each
        optional one with its default filled in."""
        cfg = self.write_cfg(tmp_path, dist="t2", n=256, d=3, m=32, n_iter=3, reps=3,
                             seed=2, n_grid=[128, 256], tol=1e-6, iter_cap=30)
        name, _, keys, _ = BENCH_CSV[experiment]
        manifest = f"bench_{experiment.replace('-', '_')}_manifest.json"
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(first)) == 0
        config = json.loads((first / manifest).read_text())["config"]
        assert list(config) == list(keys)  # the optional ones among them filled in
        if "lambda_rule" in keys:
            assert config["lambda_rule"] == "heavy_tailed"
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(config))
        assert run_cli("bench", experiment, "--config", str(rerun), "--out-dir", str(again)) == 0
        assert json.loads((again / manifest).read_text())["config"] == config

        def body(out):
            with open(out / name, newline="") as handle:
                rows = list(csv.reader(handle))
            if experiment == "time":  # wall-clock seconds are not reproducible
                col = rows[0].index("mean_seconds")
                for row in rows[1:]:
                    row[col] = ""
            return rows

        assert body(again) == body(first)
        if experiment != "time":
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("experiment", list(BENCH_CSV))
    def test_shared_config_records_what_each_experiment_reads(self, tmp_path, experiment):
        """One config file serves every experiment: each manifest's config is
        exactly the keys its experiment reads, ``unread`` lists the rest of
        the file's keys, and the config reruns to the same CSV bytes."""
        cfg = self.write_cfg(tmp_path, dist="t2", n=256, d=3, m=32, n_iter=3, reps=3, seed=2,
                             methods=["acc-ihs", "pw-gradient", "aopt-ihs"],
                             variants=["zero", "rule", "srht", "identity"],
                             proportions=[0.01, 0.1, 0.4], n_grid=[128, 256])
        written = set(json.loads(cfg.read_text()))
        name, _, keys, _ = BENCH_CSV[experiment]
        manifest = f"bench_{experiment.replace('-', '_')}_manifest.json"
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(first)) == 0
        record = json.loads((first / manifest).read_text())
        assert set(record["config"]) == set(keys)
        assert record["unread"] == sorted(written - set(keys))
        if experiment == "converge":
            assert record["unread"] == ["n_grid", "proportions", "variants"]
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(record["config"]))
        assert run_cli("bench", experiment, "--config", str(rerun), "--out-dir", str(again)) == 0
        assert json.loads((again / manifest).read_text())["unread"] == []

        def body(out):
            rows = read_rows(out / name)
            for row in rows:
                row.pop("mean_seconds", None)  # wall-clock seconds are not reproducible
            return rows

        assert body(again) == body(first)
        if experiment != "time":
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("experiment", ["converge", "time"])
    def test_lambda_rule_recorded_only_when_a_method_reads_it(self, tmp_path, experiment):
        """With no configured method that reads a ridge weight, the manifest
        leaves ``lambda_rule`` out of ``config`` and lists it as unread when
        the file sets it; its ``config`` still reruns to the same CSV."""
        name = BENCH_CSV[experiment][0]
        manifest = f"bench_{experiment.replace('-', '_')}_manifest.json"
        first, again = tmp_path / "first", tmp_path / "again"
        cfg = self.write_cfg(tmp_path, n=256, d=3, m=32, n_iter=3, reps=2, methods=["ihs"],
                             lambda_rule="heavy_tailed", tol=1e-6)
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(first)) == 0
        record = json.loads((first / manifest).read_text())
        assert "lambda_rule" not in record["config"] and "lambda_rule" in record["unread"]
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(record["config"]))
        assert run_cli("bench", experiment, "--config", str(rerun), "--out-dir", str(again)) == 0
        assert json.loads((again / manifest).read_text())["config"] == record["config"]
        rows = [read_rows(out / name) for out in (first, again)]
        for row in rows[0] + rows[1]:
            row.pop("mean_seconds", None)  # wall-clock seconds are not reproducible
        assert rows[0] == rows[1]
        if experiment != "time":
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("experiment", ["delta", "time", "lambda-sweep"])
    def test_runs_without_n_iter(self, tmp_path, experiment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist": "normal", "n": 256, "d": 3, "m": 32, "reps": 2}))
        out = tmp_path / "out"
        assert run_cli("bench", experiment, "--config", str(cfg), "--out-dir", str(out)) == 0
        record = json.loads((out / f"bench_{experiment.replace('-', '_')}_manifest.json")
                            .read_text())
        assert "n_iter" not in record["config"] and record["unread"] == []
        assert read_rows(out / BENCH_CSV[experiment][0])

    def test_threads_has_no_environment_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHLS_THREADS", "3")
        cfg = self.write_cfg(tmp_path, n_iter=1, reps=1)
        out = tmp_path / "out"
        assert run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert json.loads((out / "bench_converge_manifest.json").read_text())["threads"] == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli("bench", "converge", "--config", str(cfg), "--out-dir", str(out),
                       "--threads", threads) == 1
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
        assert not out.exists()

    # main builds its parser on its first call in a process, and every later
    # call, from any thread, parses with that one parser

    def test_three_calls_build_at_most_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = _Parser.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "sketchls":  # the top of the tree, not a subcommand
                built.append(self)

        monkeypatch.setattr(_Parser, "__init__", spy)
        for k in range(3):
            assert run_cli("gen", "--dist", "normal", "--n", "16", "--d", "2",
                           "--out-dir", str(tmp_path / str(k))) == 0
        assert len(built) <= 1

    def test_concurrent_bench_calls_write_the_serial_bytes(self, tmp_path):
        cfg = self.write_cfg(tmp_path)

        def bench(out):
            return run_cli("bench", "delta", "--config", str(cfg), "--out-dir", str(out))

        assert bench(tmp_path / "serial") == 0
        expected = (tmp_path / "serial" / "delta.csv").read_bytes()
        codes, start = {}, threading.Barrier(4)

        def worker(k):
            start.wait(timeout=60)
            codes[k] = bench(tmp_path / f"thread{k}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert codes == dict.fromkeys(range(4), 0)
        for k in range(4):
            assert (tmp_path / f"thread{k}" / "delta.csv").read_bytes() == expected

    def test_call_after_a_usage_error_runs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "delta", "--config", str(cfg), "--bogus", "1"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --bogus 1" in capsys.readouterr().err
        out = tmp_path / "out"
        assert run_cli("bench", "delta", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert read_rows(out / "delta.csv")
        assert capsys.readouterr().err == ""

    def test_console_path_in_a_fresh_process(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "sketchls.cli", "bench", "lambda-sweep",
             "--config", str(cfg), "--out-dir", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert [float(row["proportion"]) for row in read_rows(out / "lambda_sweep.csv")] == [
            round(0.1 * k, 1) for k in range(1, 11)]
        manifest = json.loads((out / "bench_lambda_sweep_manifest.json").read_text())
        assert manifest["command"] == "bench lambda-sweep"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_memory_error_is_an_error_line(self, tmp_path, capsys, monkeypatch, threads):
        # a config too large for memory used to end in numpy's traceback
        def no_memory(spec):
            raise MemoryError(f"Unable to allocate {spec.n * spec.d * 8} bytes")

        monkeypatch.setattr(sketchls.bench, "make_dataset", no_memory)
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli("bench", "delta", "--config", str(cfg), "--out-dir", str(out),
                       "--threads", threads) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 16384 bytes\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, runner", [
        ("init", "run_init_comparison"), ("converge", "run_convergence"),
        ("delta", "run_delta_table"), ("time", "run_time_to_precision"),
        ("ridge", "run_ridge_ablation"), ("lambda-sweep", "lambda_sweep"),
    ])
    def test_each_bench_call_goes_through_its_runner_name(self, tmp_path, monkeypatch,
                                                          experiment, runner):
        """A wrapper patched onto a runner's name in ``sketchls.cli`` (as the
        benchmark tracer does) sees exactly one call per ``bench`` command."""
        calls = dict.fromkeys(_RUNNERS, 0)

        def spy(name, run):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return run(*args, **kwargs)
            return wrapper

        for name in _RUNNERS:
            monkeypatch.setattr(sketchls.cli, name, spy(name, getattr(sketchls.cli, name)))
        cfg = self.write_cfg(tmp_path, n=256, m=32, n_iter=2, reps=2, n_grid=[128],
                             methods=["ihs"], iter_cap=20, tol=1e-6)
        assert run_cli("bench", experiment, "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")) == 0
        assert calls == {name: int(name == runner) for name in _RUNNERS}


def _readme_section():
    """README's bench key table, as {experiment: (required, optional)}, and
    its example config file."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    start = text.index("| experiment | required keys | optional keys |")
    table = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        exp, *cells = (cell.strip(" `") for cell in line.strip("|").split("|"))
        table[exp] = tuple([key.strip(" `") for key in cell.split(",")] for cell in cells)
    example = text[text.index("```json", start) + len("```json"):]
    return table, json.loads(example[:example.index("```")])


def test_readme_key_table_matches_the_declared_keys():
    table, _ = _readme_section()
    assert list(table) == list(BENCH_CSV)
    for exp, (required, optional) in table.items():
        keys = BENCH_CSV[exp][2]
        assert required == [key for key in keys if _CONFIG_KEYS[key][1] is None], exp
        assert optional == [key for key in keys if _CONFIG_KEYS[key][1] is not None], exp


@pytest.mark.parametrize("experiment", list(BENCH_CSV))
def test_readme_example_config_resolves(tmp_path, experiment):
    """README's example config, read by each experiment, gives exactly the
    keys README lists for it, or names the first required one it leaves out."""
    table, example = _readme_section()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(example))
    required, optional = table[experiment]
    missing = [key for key in required if key not in example]
    if missing:
        with pytest.raises(ConfigError) as err:
            _resolve_config(str(path), BENCH_CSV[experiment][2])
        assert err.value.key == missing[0]
        return
    config, unread = _resolve_config(str(path), BENCH_CSV[experiment][2])
    assert set(config) == set(required + optional)  # the example's aopt-ihs reads lambda_rule
    assert {key: config[key] for key in example if key in config} == {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in example.items() if key in config}
    assert unread == sorted(set(example) - set(config))
