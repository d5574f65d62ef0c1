"""Maximum-likelihood linear mixed models for left-censored repeated measures.

Two likelihood formulations of the same model are implemented as mutually
verifying estimation paths (marginal over censored measures; integrated over
random effects with adaptive Gauss-Hermite quadrature), alongside the biased
threshold-imputation baseline, a dataset simulator, and a batch CLI.
"""

from .data import (
    CsvSchema,
    Dataset,
    ModelSpec,
    Observation,
    SubjectData,
    bivariate_model,
    build_designs,
    intercept_slope_model,
    partition_subject,
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
from .gaussian import (
    MvnProblem,
    ProbResult,
    log_std_normal_cdf,
    log_std_normal_pdf,
    mvn_logpdf,
    mvn_rect_prob,
    std_normal_cdf,
    std_normal_icdf,
    std_normal_pdf,
)
from .likelihood import (
    LikelihoodEvaluator,
    LogLikOptions,
    Method,
    Theta,
    conditional_moments,
    loglik_agq,
    loglik_marginal,
    loglik_naive,
    marginal_moments,
    natural_names,
    natural_values,
    theta_from_vector,
    theta_to_vector,
)
from .optimize import (
    FitResult,
    OptConfig,
    fd_gradient,
    fd_hessian,
    fit_model,
    quasi_newton_maximize,
)
from .quadrature import GhRule, agq_log_integral, choose_order, find_mode, gh_rule
from .simulate import SimConfig, calibrate_threshold, default_truth, simulate

__version__ = "0.1.0"
