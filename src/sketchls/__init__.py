"""sketchls: sketched least-squares solvers and a reproducible benchmark
harness.

The library covers randomized sketching (subsampled randomized Hadamard
transform, leverage-score and uniform row sampling), a deterministic
largest-norm-rows sketch with a ridged preconditioner and exact line search,
the classical / Hessian / iterative-Hessian sketched estimators, and built-in
correctness oracles (closed-form trajectories, isometry reports, trace
bounds).
"""

__version__ = "0.1.0"

from .errors import (
    BadSubsampleSize,
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    HypothesisViolated,
    NotEnoughRows,
    NotPositiveDefinite,
    NotPowerOfTwo,
    ParseError,
    RankDeficient,
    SingularMatrix,
    SketchlsError,
    ZeroDirection,
)
from .linalg import (
    CholeskyFactor,
    cholesky,
    cond_spd,
    gram,
    row_sq_norms,
    solve_spd,
    sym_eigvals,
)
from .sketch import (
    SketchKind,
    SubsampleMask,
    aopt_select,
    derive_rng,
    draw_sketch,
    fwht,
    leverage_sample,
    leverage_scores,
    srht_apply,
    uniform_sample,
)
from .precond import (
    LambdaRule,
    Preconditioner,
    build_m,
    delta_from_matrix,
    delta_measure,
    hs_covariance_trace_bound,
    pencil_eigvals,
    trace_inverse_bound,
)
from .datagen import DataSpec, Dataset, center, gen_response, make_dataset, make_sigma
from .solvers import (
    IsometryReport,
    SolveTrace,
    acc_ihs_solve,
    aopt_cs_estimate,
    aopt_ihs_solve,
    closed_form_trajectory,
    contraction_bound,
    cs_estimate,
    exact_alpha,
    full_ls,
    hs_estimate,
    ihs_solve,
    isometry_check,
    preconditioned_descent,
    pw_gradient_solve,
)
from .bench import (
    ExperimentConfig,
    lambda_sweep,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
    trimmed_mean,
)
