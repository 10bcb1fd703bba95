"""Exception types shared across the package."""


class AdaptiveLqError(Exception):
    """Base class for all package errors."""


class NotStabilizable(AdaptiveLqError):
    """Riccati iteration diverged or failed to converge; the plant is
    (numerically) not stabilizable."""


class ShapeMismatch(AdaptiveLqError):
    """Matrix or vector dimensions are inconsistent."""


class NonFiniteInput(AdaptiveLqError):
    """An input contains NaN or infinite entries."""


class SingularQuu(AdaptiveLqError):
    """The input block of a joint cost matrix is not invertible to working
    precision; signals corrupted input."""


class IllConditioned(AdaptiveLqError):
    """A correlation matrix is too ill-conditioned to solve against."""


class EstimateNotStabilizable(AdaptiveLqError):
    """The Riccati solve on the current model estimate diverged."""


class HypothesisViolated(AdaptiveLqError):
    """A required matrix-inequality hypothesis fails beyond tolerance."""


class NotConverged(AdaptiveLqError):
    """An iterative solver or a rejection sampler exhausted its budget."""


class DomainError(AdaptiveLqError):
    """Scalar parameters are outside the admissible region of a formula."""


class ConfigError(AdaptiveLqError):
    """A run configuration document is malformed."""
