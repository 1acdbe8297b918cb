"""Exception hierarchy shared by all llrlab modules."""


class LlrLabError(Exception):
    """Base class for every error raised by llrlab."""


class ContractError(LlrLabError, ValueError):
    """An argument violates a documented precondition (shape, emptiness,
    ordering, degenerate geometry or cost structure)."""


class DomainError(LlrLabError, ValueError):
    """A scalar argument is outside the mathematical domain of the operation."""


class DecompositionError(LlrLabError):
    """A matrix factorization failed (input not positive definite).

    ``pivot`` is the zero-based index of the first non-positive pivot.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ConditioningError(LlrLabError):
    """A linear system or estimated covariance is singular or too ill-conditioned
    to trust: the condition number of its correlation matrix is above 1e12."""


class InsufficientDataError(LlrLabError):
    """Too few samples or usable points for the requested estimate."""


class SingularityError(LlrLabError):
    """Evaluation requested exactly on a fold of the score transformation,
    where the change-of-variables Jacobian vanishes."""


class ConfigError(LlrLabError):
    """A run configuration file or override could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
