"""Exception hierarchy shared by all hardy_optim modules."""


class HardyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HardyError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedPotential(HardyError):
    """Requested a closed form for a potential kind that has none."""


class UnsupportedSingularity(HardyError):
    """Series initialization is invalid for the declared singularity."""


class NonPositiveTrajectory(HardyError):
    """Riccati transform requires a strictly positive trajectory."""


class GridTooCoarse(HardyError):
    """Not enough points for the requested finite-difference stencil."""


class QuadratureError(HardyError):
    """An inner integral neither converged nor could be certified divergent."""


class NoUpperBracket(HardyError):
    """No float multiplier is infeasible: the best constant exceeds the
    largest double, or is infinite (amplitude 0)."""


class IndeterminateAtHorizon(HardyError):
    """A feasibility verdict could not be decided: neither a zero nor a
    comparison certificate was obtained by the horizon, or the multiplier
    lies within rounding of its threshold (a one-cell Bessel level, a table's
    first zero within the sweep's accuracy of R, a log family's end laws).

    Carries the multiplier that could not be decided.
    """

    def __init__(self, message: str, multiplier: float):
        super().__init__(message)
        self.multiplier = multiplier


class SingularMass(HardyError):
    """Denominator matrix of a generalized eigenproblem has a non-positive entry."""


class IndefiniteForm(HardyError):
    """Inverse-square weight at or above the critical coupling; form not coercive."""


class NonMonotoneSequence(HardyError):
    """Discretization noise broke the expected monotone decrease; extrapolation aborted."""


class DegenerateDenominator(HardyError):
    """Quotient denominator vanished numerically."""


class BoundaryConditionViolated(HardyError):
    """Endpoint limits of the weighted boundary expression disagree."""


class DivergentNorm(HardyError):
    """A dual-norm integral diverges; the induced lower bound is zero."""


class InvalidP(HardyError):
    """Lebesgue exponent outside (0, 2]."""


class ConfigError(HardyError):
    """Configuration file could not be parsed or validated."""
