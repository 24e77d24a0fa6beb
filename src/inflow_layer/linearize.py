"""Analytic 2x2 eigen-analysis and the invariant-manifold graph at S1.

Every layer enters the far-field equilibrium S1 along an invariant manifold
tangent to its slow eigendirection: the center manifold of the sonic
saddle-node, the stable manifold of the subsonic saddle.  ``SlowGraph`` is
the one representation of that manifold, the order-``GRAPH_ORDER`` graph
z = h(w) over the slow coordinate built by ``slow_graph``, with the
polynomials of the reduced flow and the invariance defect along it.  Its
points, phase velocity, coordinate inverse and Gauss-Legendre flight times
serve the sigma and gamma traces, the curves' values next to S1 and the
profiles' legs; ``transonic_frame`` builds it in the closed-form sonic frame,
``saddle_graph`` in the subsonic saddle's eigenframe.

``slow_graph`` solves the invariance equation order by order (the
parameterization method in graph form; Cabre, Fontich and de la Llave,
Indiana Univ. Math. J. 52, 2003) in one eager pass over k = 0 .. 4N - 1 on
Python-float lists: at each k it appends the w^k coefficient of every node
of ``field_nonlinear``'s expression tree on the graph, by the recurrences
of Taylor-series arithmetic (Jorba and Zou, Experimental Math. 14, 2005),
and for k = 2 .. N it solves h_k from the w^k coefficients of the
invariance equation, which never read h_k.  The flow and the defect, to
w^3N and w^(4N - 1), come out of the same lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DefectiveMatrix, DomainError
from .gas import TOL_MACH
from .system import SystemData

GRAPH_ORDER = 10     # highest power of the slow coordinate in ``slow_graph``
_NEWTON_STEPS = 20   # cap on ``SlowGraph.w_at`` and ``Curve.predict``; a few suffice

# 20-node Gauss-Legendre rule on [-1, 1] for the flight-time panels along
# the graph, as computed by scipy.special.roots_legendre(20); numpy's leggauss
# weights differ in the last bits, which would move the profile's xi
_GL_NODES = np.array([
    -0.9931285991850949, -0.9639719272779137, -0.912234428251326,
    -0.8391169718222189, -0.7463319064601508, -0.6360536807265149,
    -0.510867001950827, -0.37370608871541955, -0.22778585114164504,
    -0.0765265211334973, 0.0765265211334973, 0.22778585114164504,
    0.37370608871541955, 0.510867001950827, 0.6360536807265149,
    0.7463319064601508, 0.8391169718222189, 0.912234428251326,
    0.9639719272779137, 0.9931285991850949,
])
_GL_WEIGHTS = np.array([
    0.017614007139152687, 0.04060142980038748, 0.06267204833410933,
    0.08327674157670427, 0.10193011981724026, 0.11819453196151841,
    0.13168863844917644, 0.14209610931838176, 0.1491729864726036,
    0.1527533871307256, 0.1527533871307256, 0.1491729864726036,
    0.14209610931838176, 0.13168863844917644, 0.11819453196151841,
    0.10193011981724026, 0.08327674157670427, 0.06267204833410933,
    0.04060142980038748, 0.017614007139152687,
])


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


def _horner(coef, w):
    """Value at w (a float or an array) of the polynomial with ascending
    coefficients ``coef`` (an array or a list of floats); it only
    multiplies and adds, so it rounds the same on every host."""
    acc = coef[-1] + 0.0 * w
    for c in coef[-2::-1]:
        acc = acc * w + c
    return acc


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative, same length as ``coef``."""
    return np.append(coef[1:] * np.arange(1, coef.size), 0.0)


@dataclass(frozen=True)
class SlowGraph:
    """Invariant manifold z = h(w) tangent to the slow eigendirection at S1.

    Coordinates are (z, w) = P^{-1} (u - u+, theta - theta+) with P =
    [e_fast e_slow]: z is the fast coordinate (rate lam_fast), w the slow
    one (rate lam_slow).  ``h`` holds the graph's coefficients of w^0 ..
    w^N (the first two are 0), ``flow`` those of the reduced flow w' =
    lam_slow w + g_w(h(w), w) along it, and ``defect_coef`` those of the
    invariance defect z' - h'(w) w', zero up to rounding through w^N, all
    exactly as composed.  ``point`` and ``w_at`` read the graph at one w on
    Python-float copies of h, h' and the eigenvectors, made once.
    """

    lam_fast: float
    lam_slow: float
    e_fast: np.ndarray
    e_slow: np.ndarray
    P_inv: np.ndarray
    h: np.ndarray
    flow: np.ndarray
    defect_coef: np.ndarray
    _sys: SystemData
    _floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = self.h.tolist()      # and h' as ``_derivative`` forms it, h_k * k
        object.__setattr__(self, "_floats", (h, [c * k for k, c in enumerate(h)][1:] + [0.0],
                                             self.e_fast.tolist(), self.e_slow.tolist()))

    def points(self, w) -> np.ndarray:
        """Phase points S1 + h(w) e_fast + w e_slow, rows of shape (..., 2)."""
        w = np.asarray(w, dtype=float)
        z = _horner(self.h, w)
        s = self._sys
        return np.stack([s.u_plus + (z * self.e_fast[0] + w * self.e_slow[0]),
                         s.theta_plus + (z * self.e_fast[1] + w * self.e_slow[1])],
                        axis=-1)

    def point(self, w: float) -> tuple[float, float]:
        """``points`` at one w on Python floats: the same operations in the
        same order, so the same bits."""
        h, _, (ef0, ef1), (es0, es1) = self._floats
        z = _horner(h, w)
        s = self._sys
        return (s.u_plus + (z * ef0 + w * es0), s.theta_plus + (z * ef1 + w * es1))

    def speed(self, w):
        """Reduced-flow speed w'."""
        return _horner(self.flow, w)

    def velocity(self, w) -> np.ndarray:
        """Phase velocity w' (h'(w) e_fast + e_slow) of the reduced flow at
        the graph points over w, rows of shape (..., 2)."""
        w = np.asarray(w, dtype=float)
        dz = _horner(_derivative(self.h), w)
        speed = self.speed(w)
        return np.stack([speed * (dz * self.e_fast[0] + self.e_slow[0]),
                         speed * (dz * self.e_fast[1] + self.e_slow[1])], axis=-1)

    def w_at(self, i: int, d: float) -> float:
        """The w near 0 at which component ``i`` of points(w) - S1 is ``d``:
        Newton's method from the eigenline's w = d / e_slow[i], on Python
        floats."""
        h, dh, e_fast, e_slow = self._floats
        ef, es = e_fast[i], e_slow[i]
        w = d / es
        for _ in range(_NEWTON_STEPS):
            step = (_horner(h, w) * ef + w * es - d) / (_horner(dh, w) * ef + es)
            w -= step
            if abs(step) <= 1e-15 * abs(w):
                break
        return w

    def flight_times(self, w_grid) -> np.ndarray:
        """Time of flight of the reduced flow across each panel of ``w_grid``:
        (b - a)/2 * sum(weight / speed) over the 20 Gauss-Legendre nodes
        mapped into the panel [a, b]."""
        w_grid = np.asarray(w_grid, dtype=float)
        a = w_grid[:-1, None]
        b = w_grid[1:, None]
        nodes = (b - a) * (_GL_NODES + 1) / 2.0 + a
        return (b - a)[:, 0] / 2.0 * np.sum(
            _GL_WEIGHTS * (1.0 / self.speed(nodes)), axis=-1)

    def defect(self, w):
        """Normal invariance defect z' - h'(w) w' of the field at the graph
        points over w (a float or an array)."""
        return _horner(self.defect_coef, w)


def _product_coef(a: list, b: list, k: int, i0: int, i1: int) -> float:
    """Coefficient k of the product of the series ``a`` and ``b`` whose
    terms a_i b_(k-i) lie in the window i0 <= i <= i1: their sum from 0.0,
    in ascending i, over the nonzero a_i (a NaN counts).  The caller cuts
    the window to the i at which a_i and b_(k-i) can both be nonzero, so
    the terms left out are products with an exact zero, which move no
    finite sum.  An explicit loop, since ``sum`` of floats is compensated
    from Python 3.12 on and would move bits."""
    acc = 0.0
    for i in range(i0, i1 + 1):
        ai = a[i]
        if ai != 0.0:
            acc += ai * b[k - i]
    return acc


def transonic_frame(s: SystemData, tol_M: float = TOL_MACH) -> SlowGraph:
    """The center-manifold graph at S1 of a sonic far field.

    Once the regime test |M+ - 1| <= tol_M passes, the zero eigenvalue is
    treated as exactly zero: the graph is built on the closed-form
    eigenvectors (1, m2) of the rate lambda2 > 0 and (1, m1) of the center
    direction (sigma's tangent at S1), so its slow coordinate is the center
    coordinate W1 of W = P^{-1} (u - u+, theta - theta+), P = [(1, m1)
    (1, m2)], and its ``flow`` starts a2 W1^2.
    """
    if abs(s.mach_plus - 1.0) > tol_M:
        raise DomainError(
            f"transonic frame requires |M - 1| <= {tol_M}, got M = {s.mach_plus}")
    g, R, mu, kappa = s.gas.gamma, s.gas.R, s.gas.mu, s.gas.kappa
    up = s.u_plus
    lam2 = ((g - 1.0) / (g * mu) + s.c_mix) * up
    m1 = -(g - 1.0) * up / (R * g)
    m2 = mu * up / (kappa * (g - 1.0))
    return slow_graph(s, lam2, (1.0, m2), 0.0, (1.0, m1))


def saddle_graph(s: SystemData, eig: EigenPair) -> SlowGraph:
    """The stable-manifold graph at S1 of a subsonic far field, whose
    branches are gamma1 and gamma2: the graph over the stable coordinate
    along e2 (rate lambda2 < 0), with the unstable e1 (rate lambda1 > 0) as
    its fast direction.

    Raises
    ------
    DomainError
        Unless lambda2 < 0 < lambda1, before anything is built.
    """
    if not (eig.lambda2 < 0.0 < eig.lambda1):
        raise DomainError("gamma branches require a saddle (subsonic regime)")
    return slow_graph(s, eig.lambda1, eig.e1, eig.lambda2, eig.e2)


def slow_graph(s: SystemData, lam_fast: float, e_fast, lam_slow: float,
               e_slow) -> SlowGraph:
    """Graph of the invariant manifold tangent to ``e_slow`` at S1, to
    w^GRAPH_ORDER.

    With (f1, f2) = ``field_nonlinear`` and (g_z, g_w) = P^{-1} (f1, f2) at
    S1 + z e_fast + w e_slow, the invariance equation lam_fast h + g_z =
    h' (lam_slow w + g_w) gives, order by order,

        h_k = ([g_z]_k - [h' g_w]_k) / (k lam_slow - lam_fast),

    where the brackets take the w^k coefficient (the parameterization
    method in graph form; Cabre, Fontich and de la Llave, Indiana Univ.
    Math. J. 52, 2003).  The divisors stay away from zero when lam_slow <=
    0 < lam_fast, and for lam_slow = 0 != lam_fast.

    One pass over k = 0 .. 4N - 1 appends coefficient k of every node of
    ``field_nonlinear``'s expression tree, on du = h e_fast[0] + w
    e_slow[0] and dtheta = h e_fast[1] + w e_slow[1]: the products du du
    (which f1 and the cube (du du) du share), (c_sq du) du and (c_mix du)
    dtheta, then f1, f2, g_z and g_w.  du and dtheta start at w^1 and h at
    w^2, so coefficient k of every product, and of h' g_w, reads its
    operands only below w^k: for 2 <= k <= N, h_k is solved before du_k
    and dtheta_k are appended.  The flow lam_slow w + g_w (degree 3N) and
    the defect lam_fast h + g_z - h' (lam_slow w + g_w) (degree 4N - 1,
    zero up to rounding through w^N) come out of the same pass.  Each
    product sums its terms with ``_product_coef`` over its operands'
    windows of coefficients that can be nonzero (w^1 .. w^N for du and
    dtheta, w^2 .. w^2N for du du, w^1 .. w^(N-1) for h', w^2 .. w^3N for
    g_w, w^1 .. w^3N for the flow), so every finite coefficient keeps the
    bits of the composition on numpy arrays cut after w^k for h_k and
    after w^(4N - 1) for the flow and defect: it adds the same nonzero
    terms in the same order.
    """
    e_fast = np.asarray(e_fast, dtype=float)
    e_slow = np.asarray(e_slow, dtype=float)
    (ef0, ef1), (es0, es1) = e_fast.tolist(), e_slow.tolist()
    det = ef0 * es1 - es0 * ef1
    (p00, p01), (p10, p11) = (es1 / det, -es0 / det), (-ef1 / det, ef0 / det)

    n = GRAPH_ORDER
    mu, cube_div = float(s.gas.mu), float(2.0 * s.gas.kappa)
    c_sq, c_mix = float(s.c_sq), float(s.c_mix)
    lam_f, lam_s = float(lam_fast), float(lam_slow)
    h, dh = [0.0, 0.0], [0.0]     # h and h', each coefficient appended once solved
    du, dth, sq_du, mix_du, du2, g_w, flow, defect = [], [], [], [], [], [], [], []
    for k in range(4 * n):
        lo, hi = max(1, k - n), min(n, k - 1)
        d2 = _product_coef(du, du, k, lo, hi)
        f1 = d2 / mu
        f2 = ((_product_coef(sq_du, du, k, lo, hi) + _product_coef(mix_du, dth, k, lo, hi))
              - _product_coef(du2, du, k, max(2, k - n), min(2 * n, k - 1)) / cube_div)
        du2.append(d2)
        g_z = f1 * p00 + f2 * p01
        g_w.append(f1 * p10 + f2 * p11)
        if 2 <= k <= n:
            rhs = g_z - _product_coef(dh, g_w, k, max(1, k - 3 * n), min(n - 1, k - 2))
            h.append(rhs / (k * lam_s - lam_f))
            dh.append(h[k] * float(k))
        z = h[k] if k <= n else 0.0
        w = 1.0 if k == 1 else 0.0
        du.append(z * ef0 + w * es0)
        dth.append(z * ef1 + w * es1)
        sq_du.append(du[k] * c_sq)
        mix_du.append(du[k] * c_mix)
        flow.append(w * lam_s + g_w[k])
        defect.append((z * lam_f + g_z)
                      - _product_coef(dh, flow, k, max(1, k - 3 * n), min(n - 1, k - 1)))
    return SlowGraph(lam_fast=lam_fast, lam_slow=lam_slow, e_fast=e_fast,
                     e_slow=e_slow, P_inv=np.array([[p00, p01], [p10, p11]]),
                     h=np.array(h), flow=np.array(flow[:3 * n + 1]),
                     defect_coef=np.array(defect), _sys=s)
