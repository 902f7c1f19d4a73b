"""Exception types shared across the package.

Everything that signals bad input derives from ValidationError (a ValueError),
so callers that only care about "my input was rejected" can catch one type.
Solver-side failures derive from SolverError (a RuntimeError).
"""


class ValidationError(ValueError):
    """Invalid input data or configuration."""


class DegenerateColumnError(ValidationError):
    """A column is constant where variation is required."""


class UndefinedCorrelationError(ValidationError):
    """Correlation against a zero-variance vector; `column` is None for the target."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class UndefinedMetricError(ValidationError):
    """Metric undefined for this input (e.g. all pairwise distances zero)."""


class NotStandardizedError(ValidationError):
    """Solver requires columns with mean 0 and unit standard deviation."""


class SizeLimitError(ValidationError):
    """Problem size exceeds the cap of an exhaustive or dense method."""


class ConfigurationError(ValidationError):
    """Inconsistent or out-of-range configuration values."""


class SingularityError(ValidationError):
    """Design submatrix is rank deficient where a unique fit is required."""


class SelectionTooLargeError(ValidationError):
    """Selected support too large for the refit sample."""


class StepSizeError(RuntimeError):
    """Gradient step produced a diverging iteration."""


class SolverError(RuntimeError):
    """Optimizer failed; the message carries the certificate."""


class UnboundedError(SolverError):
    """Linear program unbounded below."""
