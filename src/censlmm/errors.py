"""Exception hierarchy shared across the package."""


class CensLmmError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CensLmmError):
    """A required column is missing or the schema is inconsistent."""


class ParseError(CensLmmError):
    """A cell could not be parsed; carries the offending row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DimensionError(CensLmmError):
    """Design rows, covariates or integration dimensions do not match."""


class NotPositiveDefiniteError(CensLmmError):
    """A censored block's covariance is asymmetric, has a variance below
    ``gaussian.VARIANCE_FLOOR``, or is not positive definite: by the smallest
    eigenvalue of its correlation for up to three measures, by the Genz
    variable ordering from four on."""


class InvalidParameterError(CensLmmError):
    """A parameter vector violates its constraints (e.g. sigma_e = 0)."""


class ModeSearchError(CensLmmError):
    """Newton search for the integrand mode did not converge.

    Carries the last iterate so callers can inspect where it stalled.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class IntegrationError(CensLmmError):
    """A quadrature node gave a non-finite integrand value, or a QMC estimate is NaN."""


class GradientError(CensLmmError):
    """A finite-difference gradient or Hessian probe hit a non-finite value, or a score failed.

    A score fails when its evaluation raises a library error or an entry is
    not finite. ``coordinate`` names a gradient probe's coordinate.
    """

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class OptimizationStall(CensLmmError):
    """A fit's objective is not finite at its starting parameters."""


class EvaluationError(CensLmmError):
    """A log-likelihood could not be evaluated; names the subject."""

    def __init__(self, message, subject_id=None):
        super().__init__(message)
        self.subject_id = subject_id
