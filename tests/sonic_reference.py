"""Test-side references for the invariant-manifold graph at S1.

``graph_defect`` composes a graph's invariance defect from the field on
Python floats, the definition that ``SlowGraph.defect``'s stored polynomial
must reproduce.

The rest concerns the center-manifold graph of a sonic far field.  In the
frame of ``transonic_frame``'s graph, W1 the slow (center) and W2
the fast coordinate, the field reads W1' = g1(W1, W2), W2' = lambda2 W2 +
g2(W1, W2), the form ``degenerate.classify_degenerate`` takes.
``closed_form`` gives the order-3 graph W2 = c2 W1^2 + c3 W1^3 and the
reduced flow W1' = a2 W1^2 from the order-2 and order-3 invariance
equations lambda2 h + g2(w, h) = h'(w) g1(w, h).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from inflow_layer.linearize import _derivative, _horner
from inflow_layer.system import field_nonlinear


def graph_defect(graph, w: float) -> float:
    """Normal invariance defect z' - h'(w) w' of the field at the graph
    point over w, composed from ``field_nonlinear`` on Python floats."""
    z = float(_horner(graph.h, w))
    dz = float(_horner(_derivative(graph.h), w))
    (ef0, ef1), (es0, es1) = graph.e_fast.tolist(), graph.e_slow.tolist()
    f1, f2 = field_nonlinear(z * ef0 + w * es0, z * ef1 + w * es1, graph._sys)
    (p00, p01), (p10, p11) = graph.P_inv.tolist()
    return (graph.lam_fast * z + (p00 * f1 + p01 * f2)
            - dz * (graph.lam_slow * w + (p10 * f1 + p11 * f2)))


def w_equations(graph):
    """(g1, g2): the nonlinear parts of the slow and the fast equation in
    the graph's frame, as functions of (slow, fast) coordinates."""
    (pf, ps) = graph.P_inv
    s = graph._sys

    def g(w1, w2):
        w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
        du = w2 * graph.e_fast[0] + w1 * graph.e_slow[0]
        dth = w2 * graph.e_fast[1] + w1 * graph.e_slow[1]
        f = np.array(field_nonlinear(du, dth, s))
        return ps @ f, pf @ f

    return (lambda w1, w2: g(w1, w2)[0]), (lambda w1, w2: g(w1, w2)[1])


def closed_form(s) -> SimpleNamespace:
    """lambda2, m1, m2, det_P = m2 - m1, a2, c2 and c3 of the sonic frame."""
    g, R, mu, kappa = s.gas.gamma, s.gas.R, s.gas.mu, s.gas.kappa
    up = s.u_plus
    lam2 = ((g - 1.0) / (g * mu) + s.c_mix) * up
    m1 = -(g - 1.0) * up / (R * g)
    m2 = mu * up / (kappa * (g - 1.0))
    det_p = m2 - m1
    a2 = R * g * (g + 1.0) / (2.0 * (R * g * mu + kappa * (g - 1.0) ** 2))
    # b2, b3 are the w1^2, w1^3 coefficients of g2(w1, 0) and q12 its
    # w1*w2 coefficient
    b2 = (-m1 / mu + s.c_sq + s.c_mix * m1) / det_p
    b3 = -1.0 / (2.0 * kappa * det_p)
    q12 = (-2.0 * m1 / mu + 2.0 * s.c_sq + s.c_mix * (m1 + m2)) / det_p
    c2 = -b2 / lam2
    c3 = (2.0 * c2 * a2 - b3 - q12 * c2) / lam2
    return SimpleNamespace(lambda2=lam2, m1=m1, m2=m2, det_P=det_p, a2=a2, c2=c2, c3=c3)
