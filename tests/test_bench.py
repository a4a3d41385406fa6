import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchls.bench
from sketchls import (
    DataSpec,
    EmptyInput,
    ExperimentConfig,
    LambdaRule,
    RankDeficient,
    aopt_cs_estimate,
    lambda_sweep,
    make_dataset,
    preconditioned_descent,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
    trimmed_mean,
)


def fail_on_call(fn, k):
    """Wrap ``fn`` so that its ``k``-th call (0-based) raises RankDeficient."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == k + 1:
            raise RankDeficient("injected")
        return fn(*args, **kwargs)

    return wrapped


def diverge_on_call(entry, k):
    """The METHODS entry ``entry`` with its solver wrapped so that its
    ``k``-th call (0-based) returns its trace marked ``diverge``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        trace = entry.solve(*args, **kwargs)
        if len(calls) == k + 1:
            trace.status = "diverge"
        return trace

    return entry._replace(solve=wrapped)


def small_cfg(**kw):
    defaults = dict(
        data=DataSpec("normal", 512, 5, seed=0),
        m=128,
        n_iter=6,
        reps=6,
        lambda_rule=LambdaRule("concentrated"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestTrimmedMean:
    def test_no_trim_is_mean(self):
        assert trimmed_mean([1.0, 2.0, 3.0], 0.0) == 2.0

    def test_hand_counted_tails(self):
        # floor(0.025 * 40) = 1 dropped per tail: mean of 1..38
        assert trimmed_mean(np.arange(40.0), 0.025) == pytest.approx(19.5)

    def test_constant_input(self):
        assert trimmed_mean(np.full(17, 3.25), 0.4) == 3.25

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            trimmed_mean([], 0.1)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            trimmed_mean([1.0], 0.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.0, 0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_bounded(self, values, frac):
        rng = np.random.default_rng(0)
        shuffled = list(values)
        rng.shuffle(shuffled)
        a = trimmed_mean(values, frac)
        assert a == trimmed_mean(shuffled, frac)
        assert min(values) - 1e-9 <= a <= max(values) + 1e-9


class TestRunConvergence:
    def test_noiseless_is_exact_from_iteration_zero(self):
        cfg = small_cfg(
            data=DataSpec("normal", 256, 4, seed=1, sigma_noise=0.0),
            m=64,
            reps=1,
            methods=("aopt-ihs",),
        )
        rows, meta = run_convergence(cfg)
        assert meta["failures"]["aopt-ihs"] == 0
        for row in rows:
            assert row["mse2"] <= 1e-20

    def test_aopt_initializer_beats_zero_start(self):
        cfg = small_cfg(
            data=DataSpec("normal", 2048, 20, seed=2),
            m=400,
            reps=5,
            n_iter=3,
            methods=("ihs", "aopt-ihs"),
        )
        rows, _ = run_convergence(cfg)
        at0 = {r["method"]: r["mse2"] for r in rows if r["iter"] == 0}
        assert at0["aopt-ihs"] * 10 <= at0["ihs"]

    def test_no_descent_violations(self):
        cfg = small_cfg(methods=("aopt-ihs",), reps=8, n_iter=12)
        _, meta = run_convergence(cfg)
        assert meta["descent_violations"] == 0

    def test_thread_count_does_not_change_results(self):
        cfg = small_cfg(reps=6)
        rows1, _ = run_convergence(cfg, threads=1)
        rows4, _ = run_convergence(cfg, threads=4)
        assert rows1 == rows4

    def test_aopt_for_all_shares_initializer(self):
        cfg = small_cfg(methods=("ihs", "aopt-ihs"), init_policy="aopt-for-all", reps=3)
        rows, _ = run_convergence(cfg)
        at0 = {r["method"]: r["mse1"] for r in rows if r["iter"] == 0}
        assert at0["ihs"] == pytest.approx(at0["aopt-ihs"], rel=1e-12)

    def test_long_run_mse2_hits_floating_point_floor(self):
        # the convergent line-search method drives mse2 below 1e-16 by N=100
        cfg = small_cfg(
            data=DataSpec("normal", 2**12, 20, seed=9),
            m=400,
            n_iter=100,
            reps=3,
            methods=("aopt-ihs",),
        )
        rows, _ = run_convergence(cfg)
        final = [r["mse2"] for r in rows if r["iter"] == 100]
        assert final and final[0] <= 1e-16

    def test_divergent_solve_fails_one_replication(self, monkeypatch):
        cfg = small_cfg(methods=("ihs", "aopt-ihs"), reps=4, n_iter=3)
        before, _ = run_convergence(cfg)
        monkeypatch.setitem(sketchls.bench.SOLVERS, "ihs",
                            diverge_on_call(sketchls.bench.SOLVERS["ihs"], 1))
        after, meta = run_convergence(cfg)
        assert meta["failures"] == {"ihs": 1, "aopt-ihs": 0}
        assert {r["failures"] for r in after if r["method"] == "ihs"} == {1}
        assert [r for r in after if r["method"] == "aopt-ihs"] == [
            r for r in before if r["method"] == "aopt-ihs"
        ]

    def test_method_failing_every_replication_writes_no_rows(self, monkeypatch):
        cfg = small_cfg(methods=("ihs", "aopt-ihs"), reps=3, n_iter=2)
        before, _ = run_convergence(cfg)

        def always_fails(*args, **kwargs):
            raise RankDeficient("injected")

        monkeypatch.setitem(sketchls.bench.SOLVERS, "ihs",
                            sketchls.bench.SOLVERS["ihs"]._replace(solve=always_fails))
        after, meta = run_convergence(cfg)
        assert meta["failures"] == {"ihs": 3, "aopt-ihs": 0}
        assert [r["method"] for r in after] == ["aopt-ihs"] * 3
        assert after == [r for r in before if r["method"] == "aopt-ihs"]

    def test_pw_gradient_from_the_exact_start_does_not_fail(self):
        # m = n_pad makes the SRHT an exact isometry, so every method starts
        # at the solution up to the initializer's roundoff
        cfg = small_cfg(data=DataSpec("normal", 512, 5, seed=1), m=512, n_iter=10,
                        init_policy="aopt-for-all")
        _, meta = run_convergence(cfg)
        assert meta["failures"] == {name: 0 for name in cfg.methods}


class TestRunInitComparison:
    def test_full_row_is_noise_floor(self):
        rows, _ = run_init_comparison(
            [512], 4, 32, 4, reps=6, dist="normal", seed=3
        )
        by_est = {r["estimator"]: r["mse1"] for r in rows}
        assert by_est["full"] <= min(by_est["srht-cs"], by_est["lev-cs"], by_est["aopt-cs"])

    def test_budget_checked_against_n(self):
        with pytest.raises(ValueError):
            run_init_comparison([100], 4, 32, 4, reps=2)

    @pytest.mark.parametrize("field", ["m", "n_iter", "reps"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, field, value):
        kw = dict(n_grid=[512], d=4, m=32, n_iter=4, reps=2)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            run_init_comparison(**kw)

    def test_empty_n_grid_rejected(self):
        with pytest.raises(ValueError, match="n_grid"):
            run_init_comparison([], 4, 32, 4, reps=2)

    @pytest.mark.parametrize("n_grid", [[256, 256], "256"])
    def test_repeated_or_string_n_grid_rejected(self, n_grid):
        with pytest.raises(ValueError, match="n_grid"):
            run_init_comparison(n_grid, 4, 32, 4, reps=2)

    def test_library_error_fails_one_replication(self, monkeypatch):
        args = ([512], 4, 32, 4)
        kw = dict(reps=6, dist="normal", seed=3)
        before, _ = run_init_comparison(*args, **kw)
        monkeypatch.setattr(
            sketchls.bench, "leverage_sample", fail_on_call(sketchls.bench.leverage_sample, 2)
        )
        after, meta = run_init_comparison(*args, **kw)
        assert meta["failures"][(512, "lev-cs")] == 1
        assert [r for r in after if r["estimator"] != "lev-cs"] == [
            r for r in before if r["estimator"] != "lev-cs"
        ]
        for est in ("full", "srht-cs", "aopt-cs"):
            assert meta["failures"][(512, est)] == 0

    def test_schema(self):
        rows, meta = run_init_comparison([256, 512], 3, 16, 4, reps=3, dist="t2", seed=4)
        assert {r["n"] for r in rows} == {256, 512}
        assert {r["estimator"] for r in rows} == {"full", "srht-cs", "lev-cs", "aopt-cs"}
        assert meta["budget"] == 64


class TestRunDeltaTable:
    def test_identity_control_is_zero(self):
        cfg = small_cfg(reps=3)
        rows, _ = run_delta_table(cfg, variants=("identity",))
        assert abs(rows[0]["delta_mean"]) <= 1e-9
        assert rows[0]["failures"] == 0

    def test_default_variants_present(self):
        cfg = small_cfg(reps=3)
        rows, _ = run_delta_table(cfg)
        assert [r["variant"] for r in rows] == ["zero", "rule", "srht"]
        for row in rows:
            assert row["dist"] == "normal" and row["d"] == 5

    def test_ridge_improves_over_nothing_at_small_m(self):
        # with m barely above d the no-ridge masked Gram is poorly conditioned
        cfg = small_cfg(
            data=DataSpec("t2", 1024, 10, seed=5), m=64, reps=5,
            lambda_rule=LambdaRule("heavy_tailed"),
        )
        rows, _ = run_delta_table(cfg)
        vals = {r["variant"]: r["delta_mean"] for r in rows}
        assert vals["rule"] > vals["zero"]

    def test_fewer_rows_than_columns(self):
        # the ridged preconditioner from m < d rows is well defined; the
        # unridged masked Gram and the m-row SRHT Gram are singular
        cfg = small_cfg(data=DataSpec("normal", 512, 10, seed=0), m=6, reps=3)
        rows, _ = run_delta_table(cfg, variants=("zero", "rule", "srht", "identity"))
        vals = {r["variant"]: (r["delta_mean"], r["failures"]) for r in rows}
        assert vals["zero"] == vals["srht"] == (None, 3)
        assert vals["rule"][1] == vals["identity"][1] == 0
        assert 0.0 < vals["rule"][0] < 1.0 and abs(vals["identity"][0]) <= 1e-9


class TestRunTimeToPrecision:
    def test_identity_sketch_control_one_iteration(self):
        # n is a power of two and m = n: the sketch is an exact isometry, so
        # the re-sketched iteration lands on the solution in one step
        cfg = small_cfg(
            data=DataSpec("normal", 256, 5, seed=6),
            m=256,
            reps=3,
            methods=("ihs",),
        )
        rows, _ = run_time_to_precision(cfg)
        assert rows[0]["status"] == "ok"
        assert rows[0]["mean_iters"] == 1.0
        assert rows[0]["mean_seconds"] > 0

    def test_divergent_solve_is_a_diverge_status(self, monkeypatch):
        cfg = small_cfg(methods=("ihs", "aopt-ihs"), reps=3)
        monkeypatch.setitem(sketchls.bench.SOLVERS, "ihs",
                            diverge_on_call(sketchls.bench.SOLVERS["ihs"], 1))
        rows, _ = run_time_to_precision(cfg)
        status = {r["method"]: r["status"] for r in rows}
        assert status == {"ihs": "diverge", "aopt-ihs": "ok"}

    def test_statuses_and_means(self):
        cfg = small_cfg(reps=4, methods=("ihs", "aopt-ihs"))
        rows, meta = run_time_to_precision(cfg)
        assert meta["tol"] == 1e-10
        for row in rows:
            assert row["status"] == "ok"
            assert 1 <= row["mean_iters"] <= 500


class TestRunRidgeAblation:
    def test_identity_variant_is_plain_gradient_descent(self):
        cfg = small_cfg(reps=1, n_iter=5, data=DataSpec("normal", 256, 4, seed=7), m=64)
        rows, meta = run_ridge_ablation(cfg)
        ds = make_dataset(DataSpec("normal", 256, 4, seed=7 ^ 0))
        beta0, _ = aopt_cs_estimate(ds.x, ds.y, 64)
        direct = preconditioned_descent(
            ds.x, ds.y, beta0, lambda v: v, 5, beta_ls=ds.beta_ls
        )
        ident = [r for r in rows if r["variant"] == "identity"]
        for row, dist in zip(ident, direct.dist_to_ls):
            assert row["mse2"] == pytest.approx(dist**2, rel=1e-12, abs=1e-300)

    def test_setup_error_fails_every_variant_of_one_replication(self, monkeypatch):
        cfg = small_cfg(reps=3, n_iter=4)
        monkeypatch.setattr(
            sketchls.bench, "aopt_cs_estimate", fail_on_call(sketchls.bench.aopt_cs_estimate, 1)
        )
        rows, meta = run_ridge_ablation(cfg)
        assert meta["failures"] == {"ridged": 1, "raw": 1, "identity": 1}
        assert {r["failures"] for r in rows} == {1}

    def test_all_variants_monotone(self):
        cfg = small_cfg(reps=4, n_iter=10, data=DataSpec("t2", 512, 6, seed=8),
                        m=128, lambda_rule=LambdaRule("heavy_tailed"))
        rows, meta = run_ridge_ablation(cfg)
        assert meta["descent_violations"] == 0
        assert {r["variant"] for r in rows} <= {"ridged", "raw", "identity"}


class TestLambdaSweep:
    def test_huge_ridge_flattens_delta(self):
        cfg = small_cfg(reps=3)
        rows, _ = lambda_sweep(cfg, [1e6])
        assert abs(rows[0]["delta_mean"]) <= 0.05

    def test_one_row_per_proportion(self):
        cfg = small_cfg(reps=2)
        props = [0.1, 0.4, 1.0]
        rows, _ = lambda_sweep(cfg, props)
        assert [(r["dist"], r["proportion"]) for r in rows] == [
            ("normal", p) for p in props
        ]

    def test_positive_proportions_required(self):
        with pytest.raises(ValueError):
            lambda_sweep(small_cfg(reps=1), [0.0])

    def test_fewer_rows_than_columns(self):
        cfg = small_cfg(data=DataSpec("normal", 512, 10, seed=0), m=6, reps=3)
        rows, _ = lambda_sweep(cfg, [0.1, 0.4])
        assert [r["failures"] for r in rows] == [0, 0]
        assert 0.0 < rows[0]["delta_mean"] < rows[1]["delta_mean"] < 1.0


class TestConfigValidation:
    def test_trim_range(self):
        with pytest.raises(ValueError):
            small_cfg(trim=0.5)

    def test_m_above_n(self):
        with pytest.raises(ValueError):
            small_cfg(m=513)
        assert small_cfg(m=512).m == 512

    def test_negative_n_iter(self):
        with pytest.raises(ValueError, match="n_iter"):
            small_cfg(n_iter=-1)
        assert small_cfg(n_iter=0).n_iter == 0  # the initializer-only curve

    def test_iter_cap_below_one(self):
        with pytest.raises(ValueError, match="iter_cap"):
            small_cfg(iter_cap=0)
        with pytest.raises(ValueError, match="iter_cap"):
            small_cfg(iter_cap=-5)

    def test_reps_below_one(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            small_cfg(reps=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            small_cfg(methods=("newton",))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            small_cfg(init_policy="warm")

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_must_be_positive(self, tol):
        # a non-positive tol used to run every method to iter_cap
        with pytest.raises(ValueError, match="tol"):
            small_cfg(tol=tol)

    @pytest.mark.parametrize("methods", [(), ("ihs", "ihs")])
    def test_methods_empty_or_repeated(self, methods):
        with pytest.raises(ValueError, match="methods"):
            small_cfg(methods=methods)


def _no_replication(*args, **kwargs):
    raise AssertionError("a replication started before the keys were checked")


class TestKeysCheckedUpFront:
    @pytest.mark.parametrize(
        "variants", [(), ("zero", "zero"), ("zero", "gaussian"), "zero"]
    )
    def test_bad_delta_variants(self, variants, monkeypatch):
        monkeypatch.setattr(sketchls.bench, "make_dataset", _no_replication)
        with pytest.raises(ValueError, match="variants"):
            run_delta_table(small_cfg(reps=1), variants=variants)

    @pytest.mark.parametrize("proportions", [[], [0.1, 0.1], "12"])
    def test_bad_proportions(self, proportions, monkeypatch):
        monkeypatch.setattr(sketchls.bench, "make_dataset", _no_replication)
        with pytest.raises(ValueError, match="proportions"):
            lambda_sweep(small_cfg(reps=1), proportions)

    def test_init_budget_checked_for_every_n(self, monkeypatch):
        # n = 4096 used to run all its replications before n = 100 raised
        monkeypatch.setattr(sketchls.bench, "make_dataset", _no_replication)
        with pytest.raises(ValueError, match="n=100 is smaller than the sketch budget 128"):
            run_init_comparison([4096, 100], 3, 16, 8, 40, dist="normal")

    def test_init_trim_checked_before_any_dataset(self, monkeypatch):
        # trim = 0.6 used to fail only in the first size's trimmed means
        monkeypatch.setattr(sketchls.bench, "make_dataset", _no_replication)
        with pytest.raises(ValueError, match=r"^trim must lie in \[0, 0.5\)$"):
            run_init_comparison([256], 3, 16, 4, 2, dist="normal", trim=0.6)


@pytest.mark.parametrize("run", [run_convergence, run_time_to_precision])
def test_ridge_weight_resolved_only_for_a_method_that_reads_it(run, monkeypatch):
    resolved = []
    resolve = LambdaRule.resolve
    monkeypatch.setattr(LambdaRule, "resolve",
                        lambda rule, x: resolved.append(rule) or resolve(rule, x))
    run(small_cfg(methods=("ihs", "pw-gradient"), reps=2, n_iter=2))
    assert resolved == []
    run(small_cfg(methods=("ihs", "aopt-ihs"), reps=2, n_iter=2))
    assert len(resolved) == 2  # once per replication


@pytest.mark.parametrize("methods, calls", [(("aopt-ihs",), 0), (("ihs", "aopt-ihs"), 3)])
def test_aopt_for_all_forms_the_shared_start_only_for_a_method_that_reads_it(
        methods, calls, monkeypatch):
    # aopt-ihs forms its own start and reads no beta0
    made = []
    estimate = sketchls.bench.aopt_cs_estimate
    monkeypatch.setattr(sketchls.bench, "aopt_cs_estimate",
                        lambda *args: made.append(None) or estimate(*args))
    run_convergence(small_cfg(methods=methods, init_policy="aopt-for-all", reps=3, n_iter=2))
    assert len(made) == calls


#: each experiment's run on small data, and the key of each of its rows
_FOLD_RUNS = {
    "converge": (lambda: run_convergence(small_cfg(methods=("ihs", "aopt-ihs"), reps=3,
                                                   n_iter=2)), "method"),
    "init": (lambda: run_init_comparison([256, 512], 3, 16, 4, reps=3, dist="normal", seed=3),
             "estimator"),
    "delta": (lambda: run_delta_table(small_cfg(reps=3)), "variant"),
    "time": (lambda: run_time_to_precision(small_cfg(methods=("ihs", "aopt-ihs"), reps=3)),
             "method"),
    "ridge": (lambda: run_ridge_ablation(small_cfg(reps=3, n_iter=2)), "variant"),
    "lambda-sweep": (lambda: lambda_sweep(small_cfg(reps=3), [0.1, 0.4]), "proportion"),
}


@pytest.mark.parametrize("where", ["start", "measure"])
@pytest.mark.parametrize("experiment", list(_FOLD_RUNS))
def test_fold_fails_a_replication_or_one_entry(experiment, where, monkeypatch):
    """A library error in replication 1's ``start`` fails every key of that
    replication; one in its ``measure`` of the first key fails that entry
    only.  Each shows in the experiment's own output: the ``failures``
    column, or ``time``'s ``diverge`` status."""
    run, label = _FOLD_RUNS[experiment]
    outcome = (lambda r: r["status"]) if experiment == "time" else (lambda r: r["failures"])
    failed, ok = ("diverge", "ok") if experiment == "time" else (1, 0)
    before, _ = run()
    keys = list(dict.fromkeys(r[label] for r in before))
    assert {outcome(r) for r in before} == {ok}
    table = sketchls.bench._table

    def failing_table(spec, start, fold_keys, reps, threads, row):
        def failing_start(rep, ds):
            if where == "start" and rep == 1:
                raise RankDeficient("injected")
            measure = start(rep, ds)

            def failing_measure(key):
                if where == "measure" and rep == 1 and key == fold_keys[0]:
                    raise RankDeficient("injected")
                return measure(key)

            return failing_measure

        return table(spec, failing_start, fold_keys, reps, threads, row)

    monkeypatch.setattr(sketchls.bench, "_table", failing_table)
    after, _ = run()
    hit = keys if where == "start" else keys[:1]
    assert {(r[label], outcome(r)) for r in after} == {
        (key, failed if key in hit else ok) for key in keys}
    if where == "measure" and experiment != "time":  # wall-clock columns differ
        assert [r for r in after if r[label] not in hit] == [
            r for r in before if r[label] not in hit]


def test_every_method_has_its_own_stream():
    # a method without a tag used to abort the run with a KeyError
    tags = sketchls.bench._STREAMS
    assert set(sketchls.bench.METHODS) <= set(tags)
    assert len(set(tags.values())) == len(tags)
