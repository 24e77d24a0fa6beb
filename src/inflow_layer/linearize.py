"""Analytic 2x2 eigen-analysis, the transonic change of frame, tangent
lines at the far-field equilibrium, and a numerical classifier for
degenerate (one zero eigenvalue) planar equilibria.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DefectiveMatrix, DomainError, FitAmbiguous, NewtonDiverged
from .gas import TOL_MACH
from .system import PhasePoint, SystemData, field_nonlinear


def _normalize_direction(v: np.ndarray) -> np.ndarray:
    """Unit length with the first nonzero component positive."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise DefectiveMatrix("zero eigenvector candidate")
    v = v / n
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    return -v if lead < 0.0 else v


@dataclass(frozen=True)
class EigenPair:
    """Real eigen-decomposition of a 2x2 matrix, lambda1 >= lambda2.

    Eigenvectors are unit length with the first nonzero component positive,
    which keeps downstream curve-seeding directions deterministic.
    """

    lambda1: float
    lambda2: float
    e1: np.ndarray
    e2: np.ndarray


def eigen_2x2(A) -> EigenPair:
    """Eigenvalues and eigenvectors of a real 2x2 matrix with real spectrum.

    Roots come from the numerically stable quadratic formula; eigenvectors
    from the null spaces of the shifted matrix.  A discriminant slightly
    below zero (>= -1e-12, scaled) is clamped to zero.

    Raises
    ------
    DomainError
        If the discriminant is genuinely negative (complex eigenvalues).
    DefectiveMatrix
        If a repeated eigenvalue has a rank-deficient shift without a full
        eigenspace (Jordan block).
    """
    A = np.asarray(A, dtype=float)
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = max(1.0, float(np.max(np.abs(A)))) ** 2
    disc = tr * tr - 4.0 * det
    if disc < -1e-12 * scale:
        raise DomainError(f"complex eigenvalues, discriminant {disc}")
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    # avoid cancellation: compute the larger-magnitude root first
    if tr >= 0.0:
        big = 0.5 * (tr + root)
    else:
        big = 0.5 * (tr - root)
    if big != 0.0 and root != 0.0:
        other = det / big
    else:
        other = 0.5 * (tr - root) if tr >= 0.0 else 0.5 * (tr + root)
    lam1, lam2 = (big, other) if big >= other else (other, big)

    norm_a = max(1.0, float(np.max(np.abs(A))))

    def eigvec(lam: float) -> np.ndarray | None:
        shifted = A - lam * np.eye(2)
        # null vector of the larger row of (A - lam I)
        cands = [np.array([shifted[0, 1], -shifted[0, 0]]),
                 np.array([shifted[1, 1], -shifted[1, 0]])]
        cand = max(cands, key=lambda c: float(np.linalg.norm(c)))
        if np.linalg.norm(cand) <= 1e-14 * norm_a:
            return None
        return _normalize_direction(cand)

    v1, v2 = eigvec(lam1), eigvec(lam2)
    if v1 is None and v2 is None:
        # shift vanished entirely: A is a multiple of the identity
        v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    elif v1 is None or v2 is None:
        raise DefectiveMatrix("eigenvector extraction failed")
    elif lam1 == lam2:
        # repeated eigenvalue with a nonzero shift: one-dimensional eigenspace
        raise DefectiveMatrix(
            "repeated eigenvalue with rank-deficient shift")
    for lam, v in ((lam1, v1), (lam2, v2)):
        if np.linalg.norm(A @ v - lam * v) > 1e-6 * norm_a:
            raise DefectiveMatrix("eigenvector extraction failed")
    return EigenPair(lam1, lam2, v1, v2)


@dataclass(frozen=True)
class TransonicFrame:
    """Diagonalizing frame at S1 in the sonic (Mach 1) regime.

    P has the eigenvectors (1, m1) and (1, m2) as columns, where m1 is the
    slope of the zero-eigenvalue direction and m2 that of the expanding
    direction with rate lambda2 > 0.  W-coordinates are defined by
    W = P^{-1} (u - u+, theta - theta+).  a2 is the quadratic coefficient of
    the center-direction dynamics W1' = a2 W1^2 + O(W1^3), and manifold_c2,
    manifold_c3 the coefficients of the local invariant-manifold graph
    W2 = manifold_c2 * W1^2 + manifold_c3 * W1^3 + O(W1^4).
    """

    lambda2: float
    a2: float
    m1: float
    m2: float
    det_P: float
    P: np.ndarray
    P_inv: np.ndarray
    manifold_c2: float
    manifold_c3: float
    _sys: SystemData

    def g1(self, w1, w2):
        """Nonlinear part of the W1 equation (vectorized)."""
        return self._g(w1, w2)[0]

    def g2(self, w1, w2):
        """Nonlinear part of the W2 equation, after removing lambda2 W2."""
        return self._g(w1, w2)[1]

    def _g(self, w1, w2):
        du = np.asarray(w1, dtype=float) + np.asarray(w2, dtype=float)
        dth = self.m1 * np.asarray(w1, dtype=float) + self.m2 * np.asarray(w2, dtype=float)
        f1, f2 = field_nonlinear(du, dth, self._sys)
        g1 = (self.m2 * f1 - f2) / self.det_P
        g2 = (-self.m1 * f1 + f2) / self.det_P
        return g1, g2

    def manifold_graph(self, w1):
        """Local invariant-manifold graph W2 = c2 W1^2 + c3 W1^3."""
        w1 = np.asarray(w1, dtype=float)
        return (self.manifold_c2 + self.manifold_c3 * w1) * w1 * w1

    def manifold_slope(self, w1):
        """Derivative of the manifold graph with respect to W1."""
        w1 = np.asarray(w1, dtype=float)
        return (2.0 * self.manifold_c2 + 3.0 * self.manifold_c3 * w1) * w1

    def graph_point(self, w1: float) -> PhasePoint:
        """Phase point on the manifold graph at center coordinate w1."""
        return from_w((w1, self.manifold_graph(w1)), self, self._sys)

    def w1_from_du(self, du: float) -> float:
        """Solve du = w1 + graph(w1) for the small root near w1 = du."""
        w1 = du
        for _ in range(5):
            w1 = du - float(self.manifold_graph(w1))
        return w1

    def reduced_field(self, w1):
        """Center-direction speed along the invariant-manifold graph."""
        w1 = np.asarray(w1, dtype=float)
        return self.g1(w1, self.manifold_graph(w1))


def transonic_frame(s: SystemData, tol_M: float = TOL_MACH) -> TransonicFrame:
    """Build the diagonalizing frame for a sonic far field.

    Once the regime test |M+ - 1| <= tol_M passes, the zero eigenvalue is
    treated as exactly zero; downstream logic branches on the degenerate
    classification, not on a near-zero numerical root.
    """
    if abs(s.mach_plus - 1.0) > tol_M:
        raise DomainError(
            f"transonic frame requires |M - 1| <= {tol_M}, got M = {s.mach_plus}")
    gas = s.gas
    g, R, mu, kappa = gas.gamma, gas.R, gas.mu, gas.kappa
    up = s.u_plus
    lam2 = ((g - 1.0) / (g * mu) + s.c_mix) * up
    m1 = -(g - 1.0) * up / (R * g)
    m2 = mu * up / (kappa * (g - 1.0))
    det_p = m2 - m1
    P = np.array([[1.0, 1.0], [m1, m2]])
    P_inv = np.array([[m2, -1.0], [-m1, 1.0]]) / det_p
    a2 = R * g * (g + 1.0) / (2.0 * (R * g * mu + kappa * (g - 1.0) ** 2))
    # graph coefficients from the order-2 and order-3 invariance equations
    # lam2 h + g2(w, h) = h'(w) g1(w, h) for h = c2 w^2 + c3 w^3; b2, b3 are
    # the w1^2, w1^3 coefficients of g2(w1, 0) and q12 its w1*w2 coefficient
    b2 = (-m1 / mu + s.c_sq + s.c_mix * m1) / det_p
    b3 = -1.0 / (2.0 * kappa * det_p)
    q12 = (-2.0 * m1 / mu + 2.0 * s.c_sq + s.c_mix * (m1 + m2)) / det_p
    c2 = -b2 / lam2
    c3 = (2.0 * c2 * a2 - b3 - q12 * c2) / lam2
    return TransonicFrame(lambda2=lam2, a2=a2, m1=m1, m2=m2, det_P=det_p,
                          P=P, P_inv=P_inv, manifold_c2=c2, manifold_c3=c3,
                          _sys=s)


def to_w(p: PhasePoint, f: TransonicFrame, s: SystemData) -> np.ndarray:
    """Map a phase point to W-coordinates."""
    return f.P_inv @ np.array([p.u - s.u_plus, p.theta - s.theta_plus])


def from_w(w, f: TransonicFrame, s: SystemData) -> PhasePoint:
    """Map W-coordinates back to the phase plane."""
    d = f.P @ np.asarray(w, dtype=float)
    return PhasePoint(s.u_plus + d[0], s.theta_plus + d[1])


class DegenerateKind(enum.Enum):
    UNSTABLE_NODE = "unstable_node"
    SADDLE = "saddle"
    SADDLE_NODE_NEG_AXIS = "saddle_node_neg_axis"
    SADDLE_NODE_POS_AXIS = "saddle_node_pos_axis"


@dataclass(frozen=True)
class DegenerateClass:
    """Classification of x' = g1(x, y), y' = lam y + g2(x, y) at the origin.

    m is the leading order of psi(x) = g1(x, phi(x)) where lam phi + g2(x,
    phi) = 0, and a_m its leading coefficient.  Odd m gives an unstable node
    (a_m > 0) or a saddle (a_m < 0); even m gives a saddle-node whose unique
    incoming orbit is tangent to the negative half x-axis when a_m > 0 and
    to the positive half when a_m < 0.
    """

    m: int
    a_m: float
    kind: DegenerateKind


def _solve_phi(g2: Callable[[float, float], float], lam: float, x: float,
               tol: float, max_iter: int = 60) -> float:
    """Damped Newton solve of lam*phi + g2(x, phi) = 0 at fixed x."""
    y = -float(g2(x, 0.0)) / lam
    scale = max(abs(lam) * max(abs(y), x * x), 1e-30)

    def resid(yy: float) -> float:
        return lam * yy + float(g2(x, yy))

    r = resid(y)
    for _ in range(max_iter):
        if abs(r) <= tol * scale:
            return y
        dy = 1e-7 * (1.0 + abs(y))
        slope = (resid(y + dy) - resid(y - dy)) / (2.0 * dy)
        if slope == 0.0:
            break
        step = -r / slope
        alpha = 1.0
        for _ in range(50):
            y_new = y + alpha * step
            r_new = resid(y_new)
            if abs(r_new) < abs(r):
                y, r = y_new, r_new
                break
            alpha *= 0.5
        else:
            break
    if abs(r) <= tol * scale:
        return y
    raise NewtonDiverged(f"phi(x) solve stalled at x={x}, residual={r}")


def classify_degenerate(g1: Callable[[float, float], float],
                        g2: Callable[[float, float], float],
                        lam: float,
                        delta: float = 1e-2,
                        newton_tol: float = 1e-13,
                        points_per_branch: int = 25) -> DegenerateClass:
    """Numerically classify a degenerate planar equilibrium at the origin.

    The implicit graph phi(x) is solved by damped Newton on a log-spaced
    grid x in +-[delta/100, delta]; psi(x) = g1(x, phi(x)) is then fitted by
    log-log regression on each branch.  The integer leading order comes from
    rounding the fitted exponent.

    Raises
    ------
    FitAmbiguous
        If a fitted exponent deviates from the common integer by more than
        0.1, or the branch sign pattern contradicts its parity.
    NewtonDiverged
        If the implicit graph cannot be solved on the grid.
    """
    if lam <= 0.0:
        raise DomainError(f"classifier requires lam > 0, got {lam}")
    xs = np.geomspace(delta / 100.0, delta, points_per_branch)
    branches = {}
    for sign in (+1.0, -1.0):
        psi = np.array([float(g1(sign * x, _solve_phi(g2, lam, sign * x, newton_tol)))
                        for x in xs])
        if np.any(psi == 0.0) or len(set(np.sign(psi))) != 1:
            raise FitAmbiguous("psi changes sign or vanishes inside a branch")
        slope, intercept = np.polyfit(np.log(xs), np.log(np.abs(psi)), 1)
        branches[sign] = (slope, intercept, float(np.sign(psi[0])), psi)
    m_est = 0.5 * (branches[1.0][0] + branches[-1.0][0])
    m = int(round(m_est))
    if m < 2:
        raise FitAmbiguous(f"fitted leading order {m_est:.3f} below 2")
    for sign in (+1.0, -1.0):
        if abs(branches[sign][0] - m) > 0.1:
            raise FitAmbiguous(
                f"fitted exponent {branches[sign][0]:.4f} is not within 0.1 of {m}")
    same_sign = branches[1.0][2] == branches[-1.0][2]
    if same_sign != (m % 2 == 0):
        raise FitAmbiguous("branch sign pattern contradicts fitted parity")
    # amplitude from the lower decade, least contaminated by the next order
    lower = xs <= delta / 10.0
    psi_pos = branches[1.0][3]
    log_a = float(np.mean(np.log(np.abs(psi_pos[lower])) - m * np.log(xs[lower])))
    a_m = branches[1.0][2] * math.exp(log_a)
    if m % 2 == 1:
        kind = DegenerateKind.UNSTABLE_NODE if a_m > 0 else DegenerateKind.SADDLE
    else:
        kind = (DegenerateKind.SADDLE_NODE_NEG_AXIS if a_m > 0
                else DegenerateKind.SADDLE_NODE_POS_AXIS)
    return DegenerateClass(m=m, a_m=a_m, kind=kind)


@dataclass(frozen=True)
class TangentLine:
    """Tangent line of the existence curves at S1.

    Stored as coef_u * (u - u+) + coef_theta * (theta - theta+) = 0.  In the
    sonic regime the relevant object is the half line u <= u+ (half_line
    True); in the subsonic regime the full line.
    """

    coef_u: float
    coef_theta: float
    slope: float
    half_line: bool
    direction: np.ndarray

    def theta_at(self, u, u_plus: float, theta_plus: float):
        return theta_plus + self.slope * (np.asarray(u, dtype=float) - u_plus)


def tangent_line(s: SystemData, eig=None, frame: TransonicFrame | None = None) -> TangentLine:
    """Tangent line at S1 for the sonic or subsonic regime.

    Pass the TransonicFrame in the sonic case; the EigenPair of the matrix A
    in the subsonic case (its negative eigenvalue fixes the line).  The
    supersonic regime has no incoming curve and is rejected.
    """
    if frame is not None:
        coef_u = (s.gas.gamma - 1.0) * s.u_plus
        coef_th = s.gas.R * s.gas.gamma
        slope = -coef_u / coef_th
        half = True
    elif eig is not None:
        if s.mach_plus >= 1.0 - TOL_MACH:
            raise DomainError("subsonic tangent line requires M+ < 1")
        lam2 = eig.lambda2
        if lam2 >= 0.0:
            raise DomainError("expected a negative eigenvalue in the subsonic regime")
        coef_u = s.u_plus * s.u_plus
        coef_th = s.m2g * s.gas.kappa * (s.A22 - lam2)
        slope = -coef_u / coef_th
        half = False
    else:
        raise DomainError("tangent line needs an eigen pair or a transonic frame")
    direction = _normalize_direction(np.array([1.0, slope]))
    return TangentLine(coef_u=coef_u, coef_theta=coef_th, slope=slope,
                       half_line=half, direction=direction)
