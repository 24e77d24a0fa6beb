"""Exception types shared across the package."""


class LayerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBoundary(LayerError):
    """Boundary data does not describe an inflow problem (u_minus <= 0)."""


class DomainError(LayerError):
    """Input lies outside the mathematical domain of an operation."""


class DefectiveMatrix(LayerError):
    """2x2 matrix has a repeated eigenvalue with a one-dimensional eigenspace."""


class StepUnderflow(LayerError):
    """Adaptive step controller drove the step size below the resolvable floor."""


class NonFinite(LayerError):
    """Vector field returned NaN or infinity."""


class TraceFailed(LayerError):
    """Curve trace left its confining region or otherwise went inconsistent."""


class UnexpectedTerminal(LayerError):
    """Traced curve terminated in a way that contradicts the sign prediction."""


class OutOfRange(LayerError):
    """Query parameter lies beyond the traced span of a curve."""


class ProfileDiverged(LayerError):
    """Profile integration left the tube around the traced curve."""


class TailTooShort(LayerError):
    """Too few samples in the asymptotic tail window for a rate fit."""


class ConfigError(LayerError):
    """Invalid run configuration (bad file line, bad value, missing field)."""
