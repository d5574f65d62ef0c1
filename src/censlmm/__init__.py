"""Maximum-likelihood linear mixed models for left-censored repeated measures.

Two likelihood formulations of the same model are implemented as mutually
verifying estimation paths (marginal over censored measures; integrated over
random effects with adaptive Gauss-Hermite quadrature), alongside the biased
threshold-imputation baseline, a dataset simulator, and a batch CLI.
"""

from .data import (
    Dataset,
    ModelSpec,
    Observation,
    SubjectData,
    bivariate_model,
    intercept_slope_model,
    random_intercept_model,
    read_long_csv,
    write_long_csv,
)
from .errors import (
    CensLmmError,
    DimensionError,
    EvaluationError,
    GradientError,
    IntegrationError,
    InvalidParameterError,
    ModeSearchError,
    NotPositiveDefiniteError,
    OptimizationStall,
    ParseError,
    SchemaError,
)
from .likelihood import (
    LikelihoodEvaluator,
    LogLikOptions,
    Method,
    Theta,
    loglik_agq,
    loglik_marginal,
    loglik_naive,
    natural_names,
    natural_values,
    theta_from_vector,
    theta_to_vector,
)
from .optimize import (
    FitResult,
    fd_gradient,
    fd_hessian,
    fit_model,
    quasi_newton_maximize,
)
from .quadrature import choose_orders, gh_rule
from .simulate import SimConfig, calibrate_threshold, default_truth, simulate

__version__ = "0.1.0"
