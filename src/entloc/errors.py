"""Exception types shared across the package.

Everything numerical or domain-related derives from EntlocError so the CLI
can map any such failure to a single exit code.
"""


class EntlocError(Exception):
    """Base class for numerical and domain failures."""


# -- linear algebra ---------------------------------------------------------

class NonHermitianInput(EntlocError):
    """Matrix handed to a symmetric eigensolver is not Hermitian."""


class NoConvergence(EntlocError):
    """Eigensolver failed to converge."""


class NegativeEigenvalue(EntlocError):
    """A supposedly positive semidefinite matrix has a negative eigenvalue."""


class NotNormalized(EntlocError):
    """Density matrix trace deviates from 1 beyond tolerance."""


class DimensionMismatch(EntlocError):
    """Bipartite dimensions do not factor the matrix dimension."""


class DomainError(EntlocError):
    """Scalar argument outside its mathematical domain."""


# -- spin system ------------------------------------------------------------

class ZeroNormSubspace(EntlocError):
    """Projection removed (numerically) all of the state."""


# -- oscillator system ------------------------------------------------------

class DivergentWidth(EntlocError):
    """Requested a characteristic width that diverges at this coupling."""


# -- restriction / discretization -------------------------------------------

class EmptyRegionMass(EntlocError):
    """Measurement region carries no probability mass."""


class QuadratureNotConverged(EntlocError):
    """A quadrature failed to reach its tolerance, or a discretization would
    need more nodes than its cap."""


# -- surface fitting ---------------------------------------------------------

class ConditioningOnNullEvent(EntlocError):
    """Conditional probability requested on a zero-probability event."""


class InsufficientSupport(EntlocError):
    """Too few samples above threshold to fit a surface."""


class NonPositiveCurvature(EntlocError):
    """Fitted quadratic form is not concave; widths undefined."""
