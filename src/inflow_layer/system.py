"""Planar autonomous vector field of the layer equations.

The field is provided in two algebraically identical forms: the integrated
rational form (valid for u > 0, where the specific volume V = (v+/u+) u is
positive) and the exact polynomial expansion around the far-field
equilibrium S1 = (u+, theta+).  The expansion is exact, not truncated, so
the two forms agree to rounding error wherever both are defined; the
polynomial form is additionally defined on the whole plane and is the one
handed to the integrator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFinite
from .gas import EndState, GasParams, mach


@dataclass(frozen=True)
class PhasePoint:
    """A point (u, theta) in the phase plane."""

    u: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.theta)):
            raise ValueError(f"phase point must be finite, got ({self.u}, {self.theta})")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.theta], dtype=float)


@dataclass(frozen=True)
class SystemData:
    """Immutable bundle of constants defining one instance of the field.

    A11..A22 are the entries of the linearization at S1; alpha1, alpha2 are
    the coordinates of the secondary equilibrium S2 = (alpha1 u+, alpha2
    theta+) relative to the far field.  sigma_minus is the boundary moving
    speed -u+/v+ implied by the mass-flux condition.  c_sq and c_mix are the
    du^2 and du*dtheta coefficients of the Theta' nonlinearity (see
    ``field_nonlinear``), and m2g = u+^2 / (R theta+) = gamma M+^2.
    """

    gas: GasParams
    v_plus: float
    u_plus: float
    theta_plus: float
    sigma_minus: float
    p_plus: float
    mach_plus: float
    A11: float
    A12: float
    A21: float
    A22: float
    alpha1: float
    alpha2: float
    c_sq: float
    c_mix: float
    m2g: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.A11, self.A12], [self.A21, self.A22]])

    @property
    def det_A(self) -> float:
        return self.A11 * self.A22 - self.A12 * self.A21

    @property
    def tr_A(self) -> float:
        return self.A11 + self.A22

    @property
    def origin(self) -> PhasePoint:
        return PhasePoint(0.0, 0.0)

    @property
    def s1(self) -> PhasePoint:
        return PhasePoint(self.u_plus, self.theta_plus)

    @property
    def s2(self) -> PhasePoint:
        return PhasePoint(self.alpha1 * self.u_plus, self.alpha2 * self.theta_plus)

    @property
    def scale(self) -> float:
        return max(self.u_plus, self.theta_plus)

    def equilibria(self) -> tuple[PhasePoint, PhasePoint, PhasePoint]:
        return (self.origin, self.s1, self.s2)


def build_system(gas: GasParams, right: EndState) -> SystemData:
    """Assemble SystemData from the gas constants and the far-field state.

    The field is only defined for positive far-field velocity.
    """
    if right.u <= 0.0:
        raise DomainError(f"far-field velocity must be positive, got {right.u}")
    g, R, mu, kappa = gas.gamma, gas.R, gas.mu, gas.kappa
    up, tp, vp = right.u, right.theta, right.v
    m2g = up * up / (R * tp)  # Mach^2 * gamma
    mach_plus = mach(right, gas)
    a11 = (m2g - 1.0) * up / (m2g * mu)
    a12 = R / mu
    a21 = R * tp / kappa  # simplified form of u+^2 / (M+^2 gamma kappa)
    a22 = R * up / (kappa * (g - 1.0))
    m2 = mach_plus * mach_plus
    alpha1 = (m2 * g - m2 + 2.0) / (m2 * (g + 1.0))
    alpha2 = 1.0 - 2.0 * (1.0 - m2) * (m2 * g + 1.0) * (g - 1.0) / (m2 * (g + 1.0) ** 2)
    return SystemData(
        gas=gas, v_plus=vp, u_plus=up, theta_plus=tp,
        sigma_minus=-up / vp, p_plus=R * tp / vp, mach_plus=mach_plus,
        A11=a11, A12=a12, A21=a21, A22=a22, alpha1=alpha1, alpha2=alpha2,
        c_sq=R * tp / (kappa * up) - up / (2.0 * kappa),
        c_mix=R / (kappa * (g - 1.0)),
        m2g=m2g,
    )


def specific_volume(s: SystemData, u):
    """V = (v+/u+) u, the integrated mass equation, of a float or an array."""
    return (s.v_plus / s.u_plus) * u


def rational_terms(u, theta, s: SystemData):
    """Terms of the two integrated equations in rational form.

    Returns (V, (t1a, t1b), (t2a, t2b, t2c)): the specific volume V =
    (v+/u+) u and the right-hand-side terms of mu U'/V = t1a + t1b and
    kappa Theta'/V = t2a + t2b + t2c.
    """
    gas = s.gas
    V = specific_volume(s, u)
    du = u - s.u_plus
    dth = theta - s.theta_plus
    t1a = -s.sigma_minus * du
    t1b = gas.R * (theta / V - s.theta_plus / s.v_plus)
    t2a = -s.sigma_minus * gas.R / (gas.gamma - 1.0) * dth
    t2b = s.p_plus * du
    t2c = 0.5 * s.sigma_minus * du * du
    return V, (t1a, t1b), (t2a, t2b, t2c)


def field_exact(u, theta, s: SystemData):
    """Integrated rational form of the field, vectorized over (u, theta).

    Requires u > 0 elementwise (the form divides by V = (v+/u+) u).
    Returns (du_dxi, dtheta_dxi) with the same shape as the inputs.
    """
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(u <= 0.0):
        raise DomainError("rational form requires u > 0")
    V, (t1a, t1b), (t2a, t2b, t2c) = rational_terms(u, theta, s)
    return (V / s.gas.mu) * (t1a + t1b), (V / s.gas.kappa) * (t2a + t2b + t2c)


def field_nonlinear(du, dth, s: SystemData):
    """Nonlinear part (f1, f2) of the polynomial field around S1.

    (U', Theta') = A (du, dth) + (f1, f2) exactly, with du = u - u+ and
    dth = theta - theta+.
    """
    f1 = du * du / s.gas.mu
    f2 = s.c_sq * du * du + s.c_mix * du * dth - du ** 3 / (2.0 * s.gas.kappa)
    return f1, f2


def field_poly(u, theta, s: SystemData):
    """Exact polynomial form of the field at (u, theta).

    ``u`` and ``theta`` are floats or numpy float arrays of one shape; the
    result has their type.  Valid on the whole plane, including u <= 0.
    """
    du = u - s.u_plus
    dth = theta - s.theta_plus
    f1, f2 = field_nonlinear(du, dth, s)
    return s.A11 * du + s.A12 * dth + f1, s.A21 * du + s.A22 * dth + f2


def jacobian(p: PhasePoint, s: SystemData) -> np.ndarray:
    """Exact Jacobian of the polynomial field at p.

    At S1 this equals the matrix A; at S2 it is the linearization of the
    field around the secondary equilibrium.
    """
    du = p.u - s.u_plus
    dth = p.theta - s.theta_plus
    return np.array([
        [s.A11 + 2.0 * du / s.gas.mu, s.A12],
        [s.A21 + 2.0 * s.c_sq * du + s.c_mix * dth - 1.5 * du * du / s.gas.kappa,
         s.A22 + s.c_mix * du],
    ])


def nullcline_h1(u, s: SystemData):
    """Temperature on the U' = 0 nullcline at velocity u (vectorized)."""
    u = np.asarray(u, dtype=float)
    return -(u - s.u_plus) * (u - s.u_plus / s.m2g) / s.gas.R + s.theta_plus


def nullcline_h2(u, s: SystemData):
    """Temperature on the Theta' = 0 nullcline at velocity u (vectorized).

    The Theta' = 0 locus also contains the line u = 0; this function returns
    the parabolic branch.
    """
    u = np.asarray(u, dtype=float)
    return ((s.gas.gamma - 1.0) / (2.0 * s.gas.R)
            * (u - s.u_plus) * (u - (s.m2g + 2.0) * s.u_plus / s.m2g)
            + s.theta_plus)


def _residual_pair(s: SystemData, u, theta, du_dxi, dth_dxi):
    """Residuals of both integrated equations plus their local term masses."""
    V, (t1a, t1b), (t2a, t2b, t2c) = rational_terms(u, theta, s)
    lhs1 = s.gas.mu * du_dxi / V
    lhs2 = s.gas.kappa * dth_dxi / V
    r1 = lhs1 - (t1a + t1b)
    r2 = lhs2 - (t2a + t2b + t2c)
    loc1 = abs(lhs1) + abs(t1a) + abs(t1b)
    loc2 = abs(lhs2) + abs(t2a) + abs(t2b) + abs(t2c)
    return r1, r2, loc1, loc2


def row_residuals(s: SystemData, rows: np.ndarray) -> np.ndarray:
    """Scaled residual of each (u, theta, u', theta') row of the array
    ``rows``: the larger of its two integrated-equation residuals, each
    scaled by the larger of the global momentum/energy scale and the local
    term magnitude (the equations blow up like 1/V toward the u = 0 axis,
    where only a relative measure is meaningful).  A row with a non-finite
    residual gets ``inf``, which fails every bound."""
    scale = max(abs(s.sigma_minus) * s.u_plus, s.p_plus * s.u_plus)
    with np.errstate(divide="ignore", invalid="ignore"):   # bad rows give inf below
        r1, r2, loc1, loc2 = _residual_pair(s, *rows.T)
        scaled = np.maximum(np.abs(r1) / np.maximum(scale, loc1),
                            np.abs(r2) / np.maximum(scale, loc2))
    return np.where(np.isfinite(scaled), scaled, math.inf)


def residual_sup(s: SystemData, rows: np.ndarray) -> float:
    """Largest ``row_residuals`` of ``rows``; no rows give ``inf``."""
    scaled = row_residuals(s, rows)
    return float(scaled.max()) if scaled.size else math.inf


def phase_field(s: SystemData):
    """Polynomial field in the (xi, y) -> (u', theta') signature the
    integrator uses: ``y`` is two floats (the integrator passes a list of
    Python floats), and the result is the pair ``field_poly`` makes of
    them, two Python floats for Python floats.

    Python floats round every operation as numpy's float64 scalars do, at
    a fraction of their call overhead.  A cube too large for a float
    raises NonFinite where Python's pow raises OverflowError.
    """

    def fun(xi, y):
        u, theta = y
        try:
            return field_poly(u, theta, s)
        except OverflowError:
            raise NonFinite(f"field overflows at xi={xi}, y={y}") from None

    return fun


class Region(enum.Enum):
    """Open nullcline-bounded regions on either side of S1."""

    REGION_I = "region_1"
    REGION_II = "region_2"


def region_contains(p, which: Region, s: SystemData, slack: float = 0.0):
    """Membership test for the open regions bounded by the nullclines.

    Region I sits on 0 < u < u+, Region II on u+ < u < alpha1 u+, each
    between the two nullclines; which nullcline bounds from above swaps
    between the regions, so theta is tested against the band
    min(h1, h2) < theta < max(h1, h2).  ``p`` is a PhasePoint (the result
    is a bool) or a pair of arrays (u, theta) (the result is a boolean
    array).  ``slack`` widens every bound by that absolute amount; 0 gives
    the strict open regions.
    """
    if which is Region.REGION_II:
        if not s.mach_plus < 1.0:
            raise DomainError("Region II exists only in the subsonic regime")
        u_lo, u_hi = s.u_plus, s.alpha1 * s.u_plus
    elif which is Region.REGION_I:
        u_lo, u_hi = 0.0, s.u_plus
    else:
        raise ValueError(f"unknown region {which!r}")
    u, theta = (p.u, p.theta) if isinstance(p, PhasePoint) else p
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    h1 = nullcline_h1(u, s)
    h2 = nullcline_h2(u, s)
    inside = ((u_lo - slack < u) & (u < u_hi + slack)
              & (np.minimum(h1, h2) - slack < theta)
              & (theta < np.maximum(h1, h2) + slack))
    return bool(inside) if inside.ndim == 0 else inside
