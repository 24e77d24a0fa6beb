"""Existence-curve tracing by backward shooting from the far-field equilibrium.

The curves of interest all approach the far-field equilibrium S1 forward in
xi, which makes forward shooting onto them ill-posed: any transverse error
grows like exp(lambda_unstable * xi).  Backward integration reverses the
roles, contracting the off-manifold component, so every trace here seeds a
small offset from S1 on the curve's invariant manifold and integrates
backward until it hits an axis, is captured by the secondary equilibrium
S2, or exhausts its budget.

Near S1 the backward orbit crawls along the slow direction while explicit
steps are capped by the fast rate, so the innermost stretch of every curve
is laid analytically along its invariant-manifold graph at S1
(``linearize.SlowGraph``, of order ``GRAPH_ORDER``): the center-manifold
graph of ``transonic_frame`` for sigma, where the approach to S1 is
algebraic, and the stable-manifold graph of ``saddle_graph`` for gamma1 and
gamma2, where it is exponential.  Every trace takes its graph from the
caller and builds none; gamma1 and gamma2 leave S1 on the two sides of one
graph.  All three are seeded the same way.  The graph is sampled from the
seed offset |w| = ``seed_offset`` out to its certified radius r*: the last
point of a fixed geometric grid, contiguous from the seed and in the open
quadrant, at which the graph's invariance defect over the fast rate is
within the trace tolerance ``abs_tol + rel_tol * scale``, pulled in to the
last whose graph row (point and phase velocity) satisfies the layer
equations to ``GRAPH_RESIDUAL``, and the backward integration starts at
r*.  When S2 lies inside r*, gamma2 is the graph from S1 to S2's own graph
point and needs no integration; that is the whole branch as M+ -> 1-,
where S2 merges into S1.  When the grid's first point already fails, the
integration starts from the graph point at the seed offset.

Each curve keeps its graph and r* (``Curve.graph``, shared by gamma1 and
gamma2, and ``Curve.graph_radius``): its value between S1 and the first
offset sample is read off the graph.  Its profile orbit (``Curve.orbit``)
is the backward run from the graph point at r* and one inner grid down the
graph to S1, each made at its first use.  Refined memberships stop on that
run, and every profile on the curve is a cut of it (``Curve.leg``).
Seeding, backward integration, terminal classification, thinning and
validation are one body for all three curves; they differ only in their
graph, the side of S1 they leave on, and their terminal events.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, LayerError, OutOfRange, ProfileDiverged, TraceFailed,
                     UnexpectedTerminal)
from .gas import TOL_MEMBER, require_positive
from .integrator import (BACKWARD, BUDGET, COMPONENT_CROSSES, NEAR_EQUILIBRIUM,
                         THETA_CROSSES_ZERO, U_CROSSES_ZERO, IntegrationResult,
                         IntegrationSettings, Run, capped_knots, component_crosses,
                         integrate, near_equilibrium, theta_crosses_zero, u_crosses_zero)
from .linearize import EigenPair, SlowGraph
from .system import (PhasePoint, Region, SystemData, phase_field, region_contains,
                     row_residuals)

CURVE_SIGMA = "sigma"
CURVE_GAMMA1 = "gamma1"
CURVE_GAMMA2 = "gamma2"

TERMINAL_HIT_U_AXIS = "hit_u_axis"
TERMINAL_HIT_THETA_AXIS = "hit_theta_axis"
TERMINAL_CONVERGED_TO_S2 = "converged_to_s2"
TERMINAL_BUDGET = "budget"


CAPTURE_RADIUS = 1e-8                 # * scale, S2 capture
SLIDE_POINTS_PER_DECADE = 12          # graph samples per decade of w
GRAPH_RESIDUAL = 1e-9                 # scaled equation residual of a graph row
_S1_OFFSET = 1e-10                    # * scale, where profile runs leave or reach S1
# a profile inside r* joins the inner grid two panels (1/8 decade) below
# its |w|: of 445 boundaries inside r* on the query mix's curves, 7 fail the
# sonic exponent bound at a 1/64 or 1/32 decade gap, 3 at 1/16, none at 1/8
_FIRST_PANEL = 10.0 ** -0.125
# the profile orbit: tighter than tracing, since a profile is held to its
# residual bound on the orbit's own dense output
_LEG_SETTINGS = IntegrationSettings(rel_tol=1e-13, abs_tol=1e-15, direction=BACKWARD,
                                    max_steps=500_000)


@dataclass(frozen=True)
class TraceOptions:
    """Knobs for curve tracing; scale-relative values multiply max(u+, theta+).

    ``seed_offset`` is the seed's slow coordinate |w| on the curve's graph.
    For gamma, whose slow eigenvector has unit length, that is its distance
    from S1; sigma's center direction (1, m1) is longer, and its seed lies
    |(1, m1)| seed_offset from S1 (1.056 seed_offset on the canonical gas)."""

    seed_offset: float | None = None      # absolute |w|; default 1e-6 * scale
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 200_000
    sample_cap: float = 2e-3              # * scale, max emitted spacing
    thin_spacing: float = 1e-5            # * scale, min kept spacing

    def __post_init__(self):
        # rel_tol, abs_tol and max_steps are checked by the settings they make
        self.integration_settings()
        require_positive(self, ("sample_cap", "thin_spacing"))
        if self.seed_offset is not None:
            require_positive(self, ("seed_offset",))

    def integration_settings(self) -> IntegrationSettings:
        """The settings of every backward trace run."""
        return IntegrationSettings(rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                                   max_steps=self.max_steps, direction=BACKWARD)


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.*abs(m0):
        return 3.*m0
    return d


class Pchip:
    """Monotone piecewise-cubic interpolant through strictly increasing knots.

    Fritsch-Carlson slopes (SIAM J. Numer. Anal. 17 (1980)): zero at a local
    extremum or flat segment, otherwise the weighted harmonic mean of the
    neighbouring secants, with shape-preserving one-sided end slopes.  The
    slopes, the power-form coefficients and the evaluation repeat the
    floating-point operations of scipy's ``PchipInterpolator(x, y,
    extrapolate=False)`` in the same order, so the values agree with it bit
    for bit.  Outside [x[0], x[-1]] the value is NaN.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hk = x[1:] - x[:-1]
        mk = (y[1:] - y[:-1]) / hk
        d = np.zeros_like(y)
        if len(x) == 2:
            d[0] = d[1] = mk[0]
        else:
            smk = np.sign(mk)
            flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            w1 = 2*hk[1:] + hk[:-1]
            w2 = hk[1:] + 2*hk[:-1]
            # the divisions by zero fall on flat knots, whose slope stays 0
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1/mk[:-1] + w2/mk[1:]) / (w1 + w2)
            d[1:-1][~flat] = 1.0 / whmean[~flat]
            d[0] = _edge_slope(hk[0], hk[1], mk[0], mk[1])
            d[-1] = _edge_slope(hk[-1], hk[-2], mk[-1], mk[-2])
        t = (d[:-1] + d[1:] - 2 * mk) / hk
        self.x = x
        # coefficients of s^3, s^2, s, 1 on each interval, s = q - x[i]
        self.c = np.stack((t / hk, (mk - d[:-1]) / hk - t, d[:-1], y[:-1]))

    def __call__(self, q: float) -> float:
        x = self.x
        if not x[0] <= q <= x[-1]:
            return math.nan
        i = min(int(np.searchsorted(x, q, side="right")) - 1, len(x) - 2)
        s = q - x[i]
        c0, c1, c2, c3 = self.c[:, i]
        return ((c3 + c2*s) + c1*(s*s)) + c0*((s*s)*s)


@dataclass(frozen=True)
class Membership:
    """Result of a curve-membership query."""

    on_curve: bool
    parameter: float
    distance: float
    refined: bool


class _Orbit:
    """A curve's profile orbit: the backward run with ``_LEG_SETTINGS`` from
    the graph point ``edge`` at ``w_start``, the curve's side times its
    graph radius, stepped only as far as a caller has asked, and the one
    inner grid from that point down the graph to S1.

    Every stop on the curve beyond its graph radius, a refined membership
    value or a profile's outer leg, is a prefix of this one run, and the
    steps of a run do not depend on where it stops, so ``stop`` returns
    what ``integrate`` returns for the same field, start, settings and
    event.  The run is made at the first stop and the grid at the first
    ``leg``, each under the lock, so racing threads make one of each, and a
    profile inside the graph radius starts no run.  A stop's result carries
    views of the run's one step record, so a profile's residual rows are
    one evaluation on them.
    """

    __slots__ = ("system", "graph", "w_start", "edge", "lock", "run", "inner")

    def __init__(self, s: SystemData, graph: SlowGraph, w_start: float):
        self.system, self.graph, self.w_start = s, graph, w_start
        self.edge = graph.points(w_start)
        self.lock = threading.Lock()
        self.run = self.inner = None

    def stop(self, ev) -> IntegrationResult:
        """``integrate``'s result for the one event ``ev``: the steps
        already taken are scanned without the lock; the run is made, or
        stepped on, under it, only when none of them crosses."""
        run, events = self.run, (ev,)
        k = None if run is None else run.crossing(events)
        if k is None:
            with self.lock:
                if self.run is None:
                    self.run = Run(phase_field(self.system), self.edge, _LEG_SETTINGS)
                run = self.run
                k = run.crossing(events)
                if k is None:
                    k = run.step_until(events)
        return run.stopped_by(events, k)

    def leg(self, w: float) -> tuple:
        """The inner leg from the graph point at ``w`` down to ~1e-10 of S1,
        quadrature of the reduced flow along the graph: the flight time
        across each panel, and the points and residual rows at the panels'
        ends.  At ``w_start`` it is the grid, 16 panels a decade; inside,
        the grid's nodes from the first at most ``_FIRST_PANEL`` |w|, after
        one panel of its own from w to that node."""
        graph, w0 = self.graph, self.w_start
        if self.inner is None:
            with self.lock:
                if self.inner is None:
                    w_stop = _S1_OFFSET * self.system.scale / math.hypot(*graph.e_slow)
                    n_pts = max(60, int(round(math.log10(abs(w0) / w_stop) * 16)) + 1)
                    grid = math.copysign(1.0, w0) * np.geomspace(abs(w0), w_stop, n_pts)
                    rows = np.hstack([graph.points(grid[1:]), graph.velocity(grid[1:])])
                    self.inner = grid, graph.flight_times(grid), rows
        grid, flights, rows = self.inner
        if w != w0:
            k = int(np.searchsorted(-np.abs(grid), -_FIRST_PANEL * abs(w)))
            flights = np.concatenate([graph.flight_times([w, grid[k]]), flights[k:]])
            rows = rows[k - 1:]
        return flights, rows[:, :2], rows


@dataclass(frozen=True)
class Curve:
    """A traced existence curve, sampled from S1 outward (backward-xi order).

    S1 itself is included as the first sample (the degenerate constant
    layer); the axis terminal point, when present, is the last sample but is
    excluded from the membership parameter range since it violates the
    positivity constraints; ``terminal_point`` reads it off the samples.
    ``interpolant`` is the monotone interpolant of value over parameter.
    ``graph`` is the invariant-manifold graph at S1 the curve leaves along.
    ``orbit`` is the profile orbit from the graph point at the |w| of the
    last graph sample, ``graph_radius``: the certified radius r* (S2's slow
    coordinate for a gamma2 that ends on the graph, the seed offset when
    nothing is certified), on the side of S1 the trace left on.  Every
    profile on the curve is a cut of that orbit (``leg``).
    """

    label: str
    samples: np.ndarray
    terminal: str
    seed_offset: float
    system: SystemData
    interpolant: Pchip = field(repr=False)
    graph: SlowGraph = field(repr=False)
    orbit: _Orbit = field(repr=False, compare=False)

    @property
    def graph_radius(self) -> float:
        """r*, the |w| the profile orbit starts at."""
        return abs(self.orbit.w_start)

    @property
    def terminal_point(self) -> PhasePoint:
        """The last sample: the axis point, S2's capture point or S2's own
        graph point, or where the step budget ran out."""
        return PhasePoint(*map(float, self.samples[-1]))

    @property
    def eig(self) -> EigenPair | None:
        """The eigenpair of S1 a gamma's graph is built on, lambda1 and e1
        its fast rate and direction, lambda2 and e2 its slow ones; None for
        sigma."""
        if self.label == CURVE_SIGMA:
            return None
        g = self.graph
        return EigenPair(g.lam_fast, g.lam_slow, g.e_fast, g.e_slow)

    @property
    def param_index(self) -> int:
        """Index of the monotone parameter: u for sigma/gamma1, theta for gamma2."""
        return 1 if self.label == CURVE_GAMMA2 else 0

    @property
    def params(self) -> np.ndarray:
        return self.samples[:, self.param_index]

    @property
    def values(self) -> np.ndarray:
        return self.samples[:, 1 - self.param_index]

    @property
    def value_scale(self) -> float:
        s = self.system
        return s.u_plus if self.param_index == 1 else s.theta_plus

    @property
    def param_range(self) -> tuple[float, float]:
        p = self.params
        return float(p[-1]), float(p[0])

    def graph_w(self, q: float) -> float:
        """The graph coordinate w of parameter q (inside r*)."""
        pidx = self.param_index
        return self.graph.w_at(pidx, q - (self.system.u_plus, self.system.theta_plus)[pidx])

    def _gap_value(self, q: float) -> float:
        """Curve value at parameter q read off the graph (inside r*)."""
        return float(self.graph.points(self.graph_w(q))[1 - self.param_index])

    def predict(self, q: float) -> float:
        """Interpolated curve value at parameter q (inside the traced span)."""
        lo, hi = self.param_range
        if not lo <= q <= hi:
            raise OutOfRange(
                f"{self.label}: parameter {q} outside traced span [{lo}, {hi}]")
        if q > self.params[1]:  # between S1 and the first offset sample
            return self._gap_value(q)
        return float(self.interpolant(q))

    def beyond_graph(self, q: float) -> bool:
        """Whether parameter q lies farther from S1 than the orbit's start."""
        pidx = self.param_index
        p_s1 = (self.system.u_plus, self.system.theta_plus)[pidx]
        return abs(q - p_s1) > abs(self.orbit.edge[pidx] - p_s1)

    def refine_value(self, q: float) -> float | None:
        """The curve value at parameter q on the curve's profile orbit.

        Beyond the graph radius r* it is where the orbit, the backward run
        from the graph point at r* at rel_tol 1e-13, first crosses q: the
        stop a profile to that boundary makes, not a local re-integration
        from a traced sample.  Inside r* it is the graph point at q.  None
        when the run raises a ``LayerError`` or stops before crossing q.
        """
        if not self.beyond_graph(q):
            return self._gap_value(q)
        try:
            res = self.orbit.stop(component_crosses(self.param_index, q))
        except LayerError:
            return None
        if res.event.kind != COMPONENT_CROSSES:
            return None
        pt = res.event.point
        return pt.theta if self.param_index == 0 else pt.u

    def leg(self, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The profile to boundary parameter q, a cut of the orbit: (xi,
        points, residual rows), in forward order, xi = 0 at the boundary.

        Beyond r* the outer leg is the orbit's stop at q (the one
        ``refine_value`` makes), reversed; a row is the dense output and its
        derivative at the midpoint (where the interpolant is independent of
        the step-end field values) of each step's part in [t_event, 0] at
        least 1e-5 long.  Inside r* it is the graph point at q, with no row.
        The orbit's inner leg from there follows (``_Orbit.leg``).  Raises
        ProfileDiverged when the orbit ends before it reaches q."""
        pidx, orbit = self.param_index, self.orbit
        if self.beyond_graph(q):
            res = orbit.stop(component_crosses(pidx, q))
            if res.event.kind != COMPONENT_CROSSES:
                raise ProfileDiverged(
                    f"backward profile run ended with {res.event.kind} before "
                    "reaching the boundary data")
            t_ev, w = res.event.xi, orbit.w_start
            xi = (res.xi - t_ev)[::-1]
            # backward steps run from t_old down to t_new, the step ends; only
            # the last passes t_ev, and its end res.xi[-1] is t_ev itself
            t_old, t_new = res.xi[:-1], np.maximum(res.xi[1:], t_ev)
            kept = t_old - t_new >= 1e-5
            y, dy = res.steps.dense(0.5 * (t_new[kept] + t_old[kept]), kept, slopes=True)
            pts, rows = res.points[::-1], np.hstack([y, dy])
        else:
            w = self.graph_w(q)
            xi, pts, rows = np.zeros(1), self.graph.points(w)[None, :], np.empty((0, 4))
        flights, inner_pts, inner_rows = orbit.leg(w)
        # the inner leg's first flight starts at the outer leg's last sample
        xi_inner = np.cumsum(np.concatenate([xi[-1:], flights]))[1:]
        return (np.concatenate([xi, xi_inner]), np.vstack([pts, inner_pts]),
                np.vstack([rows, inner_rows]))


def _thin(samples: np.ndarray, s: SystemData, param_index: int,
          keep_radius: float, floor: float, noise: float) -> np.ndarray:
    """Thin to the target density while enforcing strict monotonicity.

    Keeps a sample only when both coordinates strictly advance in the
    curve's direction (on every curve the parameter decreases and the value
    increases away from S1); noise-level backtracks (integration error
    around a weak eigendirection) are absorbed into the previous sample,
    anything beyond the noise budget raises TraceFailed.  ``samples`` has
    one row per sample; the kept rows are returned, the last always among
    them.
    """
    p_s1 = (s.u_plus, s.theta_plus)[param_index]
    params = samples[:, param_index].tolist()
    values = samples[:, 1 - param_index].tolist()
    kept = [0]
    p_kept, v_kept = params[0], values[0]
    for i in range(1, len(params) - 1):
        p, v = params[i], values[i]
        adv_p = p_kept - p
        adv_v = v - v_kept
        if adv_p < -noise or adv_v < -noise:
            raise TraceFailed(
                f"sample {i} backtracks by more than the noise budget {noise:.1e}")
        near_s1 = abs(p - p_s1) <= keep_radius
        wanted = adv_p >= floor or (near_s1 and adv_p > 0.0)
        if wanted and adv_p > 0.0 and adv_v > 0.0:
            kept.append(i)
            p_kept, v_kept = p, v
    last = len(params) - 1
    while len(kept) > 1 and (params[kept[-1]] - params[last] <= 0.0
                             or values[last] - values[kept[-1]] <= 0.0):
        # terminal bisection can land within noise of the last kept samples
        kept.pop()
    kept.append(last)
    return samples[kept]


def _validate_curve(label: str, samples: np.ndarray, s: SystemData,
                    seed_offset: float, terminal: str, slack: float) -> None:
    """Monotonicity, positivity, and region confinement of the kept samples."""
    pidx = 1 if label == CURVE_GAMMA2 else 0
    step = np.diff(samples, axis=0)
    # away from S1 the parameter decreases and the value increases
    if not (np.all(step[:, pidx] < 0.0) and np.all(step[:, 1 - pidx] > 0.0)):
        raise TraceFailed(f"{label}: samples are not strictly monotone")
    interior = samples[:-1] if terminal in (TERMINAL_HIT_U_AXIS,
                                            TERMINAL_HIT_THETA_AXIS) else samples
    if np.any(interior[1:, 0] <= 0.0) or np.any(interior[1:, 1] <= 0.0):
        raise TraceFailed(f"{label}: interior sample violates positivity")
    region = Region.REGION_II if label == CURVE_GAMMA2 else Region.REGION_I
    rows = interior[1:]
    checked = ((np.max(np.abs(rows - s.s1.as_array()), axis=1) > 10.0 * seed_offset)
               & (rows[:, 1] > 0.0))
    if label == CURVE_GAMMA2:
        checked &= np.max(np.abs(rows - s.s2.as_array()), axis=1) > 1e-3 * s.scale
    # the region is widened by the integration noise budget: near S1 it
    # pinches to a parabolic sliver that a correct trace rides to within
    # its error tolerance
    inside = region_contains((rows[:, 0], rows[:, 1]), region, s, slack)
    escaped = np.flatnonzero(checked & ~inside)
    if escaped.size:
        u, th = rows[escaped[0]]
        raise TraceFailed(
            f"{label}: sample ({u}, {th}) escaped its region; "
            "tighten the integrator tolerances")


_TERMINALS = {
    U_CROSSES_ZERO: TERMINAL_HIT_U_AXIS,
    THETA_CROSSES_ZERO: TERMINAL_HIT_THETA_AXIS,
    NEAR_EQUILIBRIUM: TERMINAL_CONVERGED_TO_S2,
    BUDGET: TERMINAL_BUDGET,
}


def _certified_radii(graph: SlowGraph, side: float, eps: float, tol: float,
                     s: SystemData) -> np.ndarray:
    """Radii eps * 10**(j / SLIDE_POINTS_PER_DECADE), j = 0, 1, ..., up to the
    certified radius r*: the last one, contiguous from eps and at most
    ``scale``, at which the graph's invariance defect divided by its fast
    rate is within ``tol`` and its point has u > 0 and theta > 0, and then
    the largest of those at which the graph row (point and phase velocity)
    has a scaled equation residual within ``GRAPH_RESIDUAL``.  Empty when
    the seed itself fails.  The grid is on Python floats; each test is one
    array evaluation over it."""
    n = math.floor(math.log10(s.scale / eps) * SLIDE_POINTS_PER_DECADE) + 1
    radii = np.array([eps * 10.0 ** (j / SLIDE_POINTS_PER_DECADE) for j in range(n)])
    w = side * radii
    pts = graph.points(w)
    ok = ((np.abs(graph.defect(w)) <= tol * graph.lam_fast)
          & (pts[:, 0] > 0.0) & (pts[:, 1] > 0.0))
    m = ok.size if ok.all() else int(np.argmin(ok))
    # the defect bounds a graph point's position, not the velocity that a
    # profile's residual rows read off the graph; r* is the largest radius
    # whose row meets it
    rows = np.hstack([pts[:m], graph.velocity(w[:m])])
    passed = np.flatnonzero(row_residuals(s, rows) <= GRAPH_RESIDUAL)
    return radii[:passed[-1] + 1] if passed.size else radii[:0]


def _to_s2(graph: SlowGraph, side: float, radii: np.ndarray, s: SystemData,
           tol: float) -> tuple[np.ndarray, bool]:
    """The radii of a gamma2 with alpha2 > 0, and whether they end at S2.

    When S2's slow coordinate r_s2 lies inside the certified radii and the
    graph point there lies within ``min(tol, CAPTURE_RADIUS * scale)`` of
    S2, the radii are those below r_s2, then r_s2 itself: the branch is the
    graph from S1 to S2's own graph point.  A graph that misses S2 keeps
    only its radii below S2 / 2, for the integration to carry on into S2.
    """
    s2 = s.s2.as_array()
    r_s2 = side * float((graph.P_inv @ (s2 - s.s1.as_array()))[1])
    if not 0.0 < r_s2 <= radii[-1]:
        return radii, False
    if np.linalg.norm(graph.points(side * r_s2) - s2) > min(tol, CAPTURE_RADIUS * s.scale):
        return radii[radii < 0.5 * r_s2], False
    return np.append(radii[radii < r_s2], r_s2), True


def _trace(s: SystemData, label: str, graph: SlowGraph, side: float, events,
           opts: TraceOptions) -> Curve:
    """The curve leaving S1 along ``graph`` where w has the sign of
    ``side``: the graph samples from the seed offset out to the certified
    radius r*, then the backward integration from there until one of
    ``events``, or for a gamma2 whose S2 lies inside r* the graph samples
    out to S2's own graph point; then the terminal is checked and the
    samples are thinned and validated.  The graph radii and the
    integration are spaced by one rule, ``capped_knots`` at
    ``sample_cap * scale``."""
    scale = s.scale
    eps = opts.seed_offset if opts.seed_offset is not None else 1e-6 * scale
    tol = opts.abs_tol + opts.rel_tol * scale
    radii = _certified_radii(graph, side, eps, tol, s)
    at_s2 = False
    if radii.size and label == CURVE_GAMMA2 and s.alpha2 > 0.0:
        radii, at_s2 = _to_s2(graph, side, radii, s, tol)
    if not radii.size:
        radii = np.array([eps])
    cap = opts.sample_cap * scale
    w = side * capped_knots(radii, graph.points(side * radii), cap)[0]
    pts = np.vstack(([s.u_plus, s.theta_plus], graph.points(w)))
    if at_s2:
        terminal = TERMINAL_CONVERGED_TO_S2
    else:
        res = integrate(phase_field(s), pts[-1], opts.integration_settings(),
                        events=events, max_state_step=cap)
        pts = np.concatenate((pts, res.points[1:]))
        terminal = _TERMINALS[res.event.kind]
    if label == CURVE_GAMMA2:
        expected = (TERMINAL_CONVERGED_TO_S2 if s.alpha2 > 0.0
                    else TERMINAL_HIT_THETA_AXIS)
        if terminal != expected and terminal != TERMINAL_BUDGET:
            raise UnexpectedTerminal(
                f"gamma2 ended with {terminal}, but alpha2 = {s.alpha2} predicts {expected}")

    pidx = 1 if label == CURVE_GAMMA2 else 0
    noise = 1e3 * tol
    samples = _thin(pts, s, pidx, keep_radius=10.0 * eps,
                    floor=opts.thin_spacing * scale, noise=noise)
    _validate_curve(label, samples, s, eps, terminal, noise)
    return Curve(label=label, samples=samples, terminal=terminal,
                 seed_offset=eps, system=s,
                 interpolant=Pchip(samples[::-1, pidx], samples[::-1, 1 - pidx]),
                 graph=graph, orbit=_Orbit(s, graph, side * float(radii[-1])))


def trace_sigma(s: SystemData, graph: SlowGraph,
                opts: TraceOptions | None = None) -> Curve:
    """Trace the sonic-regime curve from S1 to its endpoint Z0 on u = 0.

    ``graph`` is the center-manifold graph of ``transonic_frame``; sigma
    leaves S1 on its side w < 0, where u < u+ (the side the incoming orbit
    is tangent to).
    """
    return _trace(s, CURVE_SIGMA, graph, -1.0, [u_crosses_zero()],
                  opts or TraceOptions())


def trace_gamma(s: SystemData, graph: SlowGraph, branch: str,
                opts: TraceOptions | None = None) -> Curve:
    """Trace a stable-manifold branch of the subsonic saddle at S1.

    ``graph`` is the stable-manifold graph of ``saddle_graph``, one for
    both branches.  gamma1 leaves S1 on its side w < 0, into 0 < u < u+,
    and ends on the u = 0 axis at Z1; gamma2 leaves on its side w > 0, into
    u > u+, and either converges to the secondary equilibrium S2 (when
    alpha2 > 0) or reaches the theta = 0 axis at Z2 (alpha2 <= 0).
    """
    if branch not in (CURVE_GAMMA1, CURVE_GAMMA2):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == CURVE_GAMMA1:
        events = [u_crosses_zero()]
    else:
        events = [theta_crosses_zero(),
                  near_equilibrium(s.s2, CAPTURE_RADIUS * s.scale)]
    side = 1.0 if branch == CURVE_GAMMA2 else -1.0
    return _trace(s, branch, graph, side, events, opts or TraceOptions())


def curve_membership(c: Curve, p: PhasePoint, tol: float = TOL_MEMBER) -> Membership:
    """Decide whether a phase point lies on a traced curve.

    The curve is parameterized by its strictly monotone coordinate (u for
    sigma/gamma1, theta for gamma2).  Borderline distances (between tol/3
    and 10 tol, relative) are refined before deciding: the value is read
    off the curve's profile orbit (``Curve.refine_value``), at the stop a
    profile to the same boundary makes.

    Raises
    ------
    DomainError
        If p violates positivity.
    OutOfRange
        If p's parameter lies beyond the traced span.
    """
    if p.u <= 0.0 or p.theta <= 0.0:
        raise DomainError("membership queries require u > 0 and theta > 0")
    q = p.theta if c.param_index == 1 else p.u
    val = p.u if c.param_index == 1 else p.theta
    dist = val - c.predict(q)
    thr = tol * c.value_scale
    refined = False
    if thr / 3.0 <= abs(dist) <= 10.0 * thr:
        better = c.refine_value(q)
        if better is not None:
            dist = val - better
            refined = True
    return Membership(on_curve=abs(dist) <= thr, parameter=q, distance=dist,
                      refined=refined)


def export_curve_csv(c: Curve, path) -> None:
    """Write the samples as ``index,u,theta`` rows in backward-xi order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "u", "theta"])
        for i, row in enumerate(c.samples):
            writer.writerow([i, repr(float(row[0])), repr(float(row[1]))])


def export_curve_json(c: Curve, path) -> None:
    """Write curve metadata: label, terminal kind and point, seed offset."""
    payload = {
        "label": c.label,
        "terminal": {
            "kind": c.terminal,
            "u": c.terminal_point.u,
            "theta": c.terminal_point.theta,
        },
        "seed_offset": c.seed_offset,
        "n_samples": int(len(c.samples)),
        "s1_included": True,
        "axis_endpoint_excluded": True,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
