"""Test-side reference for the invariant-manifold graph at S1.

``reference_graph`` is the graph's composition on numpy arrays: ``Series``
holds a power series in w cut after a fixed length, with the arithmetic
that ``field_nonlinear`` uses, and each h_k is solved by composing the
field on series cut after w^k; the flow and the defect are then composed
once more on series of length 4N.  ``linearize.slow_graph`` must give the
same h, flow, defect_coef and P_inv to the last bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from inflow_layer.linearize import GRAPH_ORDER, _derivative
from inflow_layer.system import field_nonlinear


class Series:
    """Power series in w cut after a fixed length.  A product adds the
    shifted elementwise products of the nonzero coefficients of its left
    operand, in ascending order, to zeros."""

    __slots__ = ("c",)
    __array_ufunc__ = None     # numpy scalars defer to the reflected methods

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return Series(self.c + other.c)

    def __sub__(self, other):
        return Series(self.c - other.c)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(self.c * other)
        a, b = self.c, other.c
        out = np.zeros_like(a)
        for i in np.flatnonzero(a):
            out[i:] += a[i] * b[:a.size - i]
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, x):
        return Series(self.c / x)

    def __pow__(self, n: int):
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def reference_graph(s, lam_fast: float, e_fast, lam_slow: float, e_slow):
    """h, flow, defect_coef and P_inv of the graph tangent to ``e_slow``,
    with each h_k solved on series cut after w^k."""
    (ef0, ef1), (es0, es1) = np.asarray(e_fast, float).tolist(), np.asarray(e_slow, float).tolist()
    det = ef0 * es1 - es0 * ef1
    (p00, p01), (p10, p11) = (es1 / det, -es0 / det), (-ef1 / det, ef0 / det)

    def nonlinear(h: np.ndarray):
        """(g_z, g_w) on the graph, and w, as series as long as ``h``."""
        w = np.zeros(h.size)
        w[1] = 1.0
        z, w = Series(h), Series(w)
        f1, f2 = field_nonlinear(z * ef0 + w * es0, z * ef1 + w * es1, s)
        return p00 * f1 + p01 * f2, p10 * f1 + p11 * f2, w

    h = np.zeros(GRAPH_ORDER + 1)
    for k in range(2, GRAPH_ORDER + 1):
        g_z, g_w, _ = nonlinear(h[:k + 1])
        dh = Series(_derivative(h[:k + 1]))
        h[k] = (g_z - dh * g_w).c[k] / (k * lam_slow - lam_fast)
    z = Series(np.append(h, np.zeros(3 * GRAPH_ORDER - 1)))
    g_z, g_w, w = nonlinear(z.c)
    flow = lam_slow * w + g_w
    defect = (z * lam_fast + g_z) - Series(_derivative(z.c)) * flow
    return SimpleNamespace(h=h, flow=flow.c[:3 * GRAPH_ORDER + 1], defect_coef=defect.c,
                           P_inv=np.array([[p00, p01], [p10, p11]]))
