"""Exception hierarchy shared by all hardy_optim modules."""


class HardyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HardyError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedPotential(HardyError):
    """Requested a closed form for a potential kind that has none."""


class UnsupportedSingularity(HardyError):
    """Series initialization is invalid for the declared singularity."""


class StepSizeUnderflow(HardyError):
    """Adaptive integrator stalled; carries the last abscissa reached."""

    def __init__(self, message: str, last_abscissa: float):
        super().__init__(message)
        self.last_abscissa = last_abscissa


class NonPositiveTrajectory(HardyError):
    """Riccati transform requires a strictly positive trajectory."""


class GridTooCoarse(HardyError):
    """Not enough points for the requested finite-difference stencil."""


class QuadratureError(HardyError):
    """An inner integral neither converged nor could be certified divergent."""


class NoUpperBracket(HardyError):
    """Doubling never produced an infeasible multiplier (best constant is infinite)."""

    def __init__(self, message: str, last_multiplier: float):
        super().__init__(message)
        self.last_multiplier = last_multiplier


class IndeterminateAtHorizon(HardyError):
    """Neither a zero nor a comparison certificate was obtained by the horizon.

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
