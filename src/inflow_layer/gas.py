"""Gas constants, end states, derived quantities, and the mass-flux check.

Everything here is a pure value type or pure function, safe for concurrent
use.  Raw (unnormalized) values are accepted as given; no unit system is
imposed and all arithmetic is binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidBoundary

SUPERSONIC = "supersonic"
TRANSONIC = "transonic"
SUBSONIC = "subsonic"

#: Default half-width of the transonic detection band around Mach 1.
TOL_MACH = 1e-8
#: Default relative tolerance for the mass-flux compatibility identity.
TOL_FLUX = 1e-10
#: Default relative tolerance for a boundary point's distance from a curve.
TOL_MEMBER = 1e-6


def _require_finite(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def require_positive(obj, names) -> None:
    """Reject the named attributes of ``obj`` that are not finite and positive."""
    for name in names:
        value = getattr(obj, name)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class GasParams:
    """Ideal polytropic gas constants.

    gamma : adiabatic exponent (> 1)
    R     : gas constant, pressure * volume / temperature (> 0)
    mu    : viscosity (> 0)
    kappa : heat conductivity (> 0)
    """

    gamma: float
    R: float
    mu: float
    kappa: float

    def __post_init__(self):
        _require_finite(self)
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        for name in ("R", "mu", "kappa"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class EndState:
    """State triple (specific volume, velocity, temperature) at the boundary
    or at the far field.  Velocity is signed; v and theta must be positive."""

    v: float
    u: float
    theta: float

    def __post_init__(self):
        _require_finite(self)
        if not self.v > 0.0:
            raise ValueError(f"specific volume must be positive, got {self.v}")
        if not self.theta > 0.0:
            raise ValueError(f"temperature must be positive, got {self.theta}")


@dataclass(frozen=True)
class Regime:
    """Flow regime of the far field, classified by Mach number."""

    tag: str
    mach_plus: float

    @property
    def is_supersonic(self) -> bool:
        return self.tag == SUPERSONIC

    @property
    def is_transonic(self) -> bool:
        return self.tag == TRANSONIC

    @property
    def is_subsonic(self) -> bool:
        return self.tag == SUBSONIC


def pressure(state: EndState, gas: GasParams) -> float:
    """Ideal-gas pressure R * theta / v."""
    return gas.R * state.theta / state.v


def sound_speed(state: EndState, gas: GasParams) -> float:
    """Local sound speed sqrt(R * gamma * theta)."""
    return math.sqrt(gas.R * gas.gamma * state.theta)


def mach(state: EndState, gas: GasParams) -> float:
    """Local Mach number |u| / sqrt(R * gamma * theta)."""
    return abs(state.u) / sound_speed(state, gas)


def check_tol_mach(tol_M: float) -> None:
    """Reject a transonic band half-width outside (0, 0.5)."""
    if not 0.0 < tol_M < 0.5:
        raise ValueError(f"tol_M must lie in (0, 0.5), got {tol_M}")


def classify_regime(mach_plus: float, tol_M: float = TOL_MACH) -> Regime:
    """Classify a nonnegative Mach number into one of the three regimes.

    The transonic band is |M - 1| <= tol_M; the three outcomes partition
    [0, inf) for any fixed tol_M.
    """
    if mach_plus < 0.0:
        raise ValueError(f"Mach number must be nonnegative, got {mach_plus}")
    check_tol_mach(tol_M)
    if abs(mach_plus - 1.0) <= tol_M:
        tag = TRANSONIC
    elif mach_plus > 1.0:
        tag = SUPERSONIC
    else:
        tag = SUBSONIC
    return Regime(tag, mach_plus)


@dataclass(frozen=True)
class FluxCheck:
    """Outcome of the mass-flux compatibility check.

    ok          : True when u-/v- and u+/v+ agree to the relative tolerance
    gap         : |u-/v- - u+/v+| (absolute mismatch)
    sigma_minus : boundary moving speed -u-/v- (always negative for inflow)
    """

    ok: bool
    gap: float
    sigma_minus: float


def check_flux_condition(left: EndState, right: EndState,
                         tol_A: float = TOL_FLUX) -> FluxCheck:
    """Check the mass-flux compatibility condition u-/v- = u+/v+.

    The condition is an exact algebraic identity for admissible data, so the
    default tolerance is tight.  Only the inflow problem is supported:
    left.u must be positive.
    """
    if left.u <= 0.0:
        raise InvalidBoundary(
            f"inflow problem requires u_minus > 0, got {left.u}")
    flux_left = left.u / left.v
    flux_right = right.u / right.v
    gap = abs(flux_left - flux_right)
    return FluxCheck(ok=gap <= tol_A * flux_left, gap=gap,
                     sigma_minus=-flux_left)
