"""Numerical classifier for degenerate (one zero eigenvalue) planar
equilibria, used by the acceptance suite to confirm the sonic saddle-node.

The runtime never calls it: the sigma trace seeds on the negative center
axis, the side the quadratic coefficient a2 > 0 of the center flow
(``transonic_frame(s).flow[2]``) predicts.  The classifier checks that
orientation and coefficient independently, from the W-equations alone
(``sonic_reference.w_equations``), by solving the implicit graph
lam phi + g2(x, phi) = 0 and fitting the leading order of the reduced flow
psi(x) = g1(x, phi(x)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from inflow_layer import DomainError, LayerError


class FitAmbiguous(LayerError):
    """Leading-order fit did not resolve to an integer exponent."""


class NewtonDiverged(LayerError):
    """Implicit-function Newton solve failed to converge."""


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
