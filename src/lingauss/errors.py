"""Exception types shared across the package."""


class LinGaussError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetric(LinGaussError):
    """Covariance input is not symmetric within tolerance."""


class NotPSD(LinGaussError):
    """Covariance input has an eigenvalue below the negative tolerance."""


class SingularEqualityGram(LinGaussError):
    """The equality Gram matrix is singular even after dropping redundant rows."""


class CyclingGuardExceeded(LinGaussError):
    """Simplex iteration cap hit; the tableau is numerically stuck."""


class DegenerateRegion(LinGaussError):
    """Feasible set is nonempty but flat: neither full-dimensional nor a point."""


class EmptyArcSet(LinGaussError):
    """No feasible ellipse angle found although the current point is feasible.

    Signals tolerance breakdown: with a feasible current point the angle
    theta = 0 always satisfies every constraint exactly.
    """


class DegenerateSamples(LinGaussError):
    """All samples are identical, so moment standard errors are undefined."""


class ProblemFormatError(LinGaussError):
    """Problem file is malformed or internally inconsistent."""


class NumericalBreakdown(LinGaussError):
    """An invariant that holds in exact arithmetic failed, so the run cannot go on.

    Raised when a chain state violates a constraint, or when the max-slack
    program, which is feasible and bounded by construction, ends otherwise.
    """
