"""Small-deviation bounds for the largest eigenvalue of sums of
independent random positive semidefinite Hermitian matrices, validated by
Monte Carlo simulation with exact binomial confidence intervals."""

from .bounds import (
    BoundResult,
    admissible_cp,
    chernoff_product_bound,
    chernoff_sum_bound,
    exp_envelope,
    g_theta_bound,
    log_mean_bound,
    log_rate,
    master_bound,
    negative_moment_bound,
    power_envelope,
    product_bound,
    series_product_bound,
    series_sum_bound,
    single_matrix_bound,
)
from .ensembles import (
    Bernoulli,
    BoundedRankOne,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
    Wishart,
    bernoulli_diagonal,
)
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    is_psd,
    lambda_max,
    lambda_min,
    matrix_power,
    spectral_decompose,
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
