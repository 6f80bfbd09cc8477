"""Small-deviation bounds for the largest eigenvalue of sums of
independent random positive semidefinite Hermitian matrices, validated by
Monte Carlo simulation with exact binomial confidence intervals."""

from .bounds import (
    BoundResult,
    GThetaModel,
    admissible_cp,
    chernoff_product_bound,
    chernoff_sum_bound,
    exp_envelope,
    g_theta_bound,
    g_theta_bound_grid,
    log_mean_bound,
    log_mean_bound_grid,
    log_rate,
    master_bound,
    master_bound_grid,
    negative_moment_bound,
    power_envelope,
    product_bound,
    product_bound_grid,
    series_product_bound,
    series_sum_bound,
    single_matrix_bound,
    single_matrix_bound_grid,
)
from .ensembles import (
    Bernoulli,
    BoundedRankOne,
    Exponential,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
    Wishart,
    bernoulli_diagonal,
    empirical_mgf,
)
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    expm,
    hermitian_dilation,
    is_psd,
    lambda_max,
    lambda_min,
    logm,
    matrix_function,
    matrix_power,
    spectral_decompose,
    trace,
)
from .montecarlo import (
    DominationReport,
    DominationRow,
    EmpiricalEstimate,
    clopper_pearson,
    compare,
    estimate,
)
from .optimizer import MinimizeResult, OptimizerConfig, minimize
from .rng import RngStream

__version__ = "0.1.0"
