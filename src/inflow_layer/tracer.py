"""Existence-curve tracing by backward shooting from the far-field equilibrium.

The curves of interest all approach the far-field equilibrium S1 forward in
xi, which makes forward shooting onto them ill-posed: any transverse error
grows like exp(lambda_unstable * xi).  Backward integration reverses the
roles, contracting the off-manifold component, so every trace here seeds a
small offset from S1 on the curve's invariant manifold and integrates
backward until it hits an axis, is captured by the secondary equilibrium
S2, or exhausts its budget.  The sweep's gamma2 (``trace_gamma2_to_basin``)
stops earlier, where it enters a set around S2 certified to lie in S2's
basin (``s2_basin``).

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
gamma2, and ``Curve.graph_radius``) and its trace run's steps: its value
is read off the graph inside r* and off the run's dense output beyond
(``Curve.predict``).  Its profile orbit (``Curve.orbit``) is the backward
run from the graph point at r* and one inner grid down the graph to S1,
each made at its first use.  Refined memberships stop on that run, and
every profile on the curve is a cut of it (``Curve.leg``).  The orbit also
checks once what its profiles share: the residual rows of the run's steps,
the grid's residual and difference suffixes, and on gamma the exponential
tail fit of the grid (``exponential_tail``, the one window and fit of the
subsonic decay), so that a warm profile checks only its own rows.
Seeding, backward integration, terminal classification, thinning and
validation are one body for all three curves; they differ only in their
graph, the side of S1 they leave on, and their terminal events.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, LayerError, OutOfRange, ProfileDiverged, TailTooShort,
                     TraceFailed, UnexpectedTerminal)
from .gas import TOL_MEMBER, require_positive
from .integrator import (BACKWARD, BUDGET, COMPONENT_CROSSES, INSIDE_ELLIPSE,
                         NEAR_EQUILIBRIUM, THETA_CROSSES_ZERO, U_CROSSES_ZERO, EventSpec,
                         IntegrationResult, IntegrationSettings, Run, Steps, capped_knots,
                         component_crosses, inside_ellipse, integrate, near_equilibrium,
                         theta_crosses_zero, u_crosses_zero)
from .linearize import _NEWTON_STEPS, EigenPair, SlowGraph
from .system import (PhasePoint, Region, SystemData, jacobian, phase_field,
                     region_contains, row_residuals, specific_volume)

CURVE_SIGMA = "sigma"
CURVE_GAMMA1 = "gamma1"
CURVE_GAMMA2 = "gamma2"

TERMINAL_HIT_U_AXIS = "hit_u_axis"
TERMINAL_HIT_THETA_AXIS = "hit_theta_axis"
TERMINAL_CONVERGED_TO_S2 = "converged_to_s2"
TERMINAL_BUDGET = "budget"


CAPTURE_RADIUS = 1e-8                 # * scale, S2 capture
# a loose trace hovers within about 1.5x its error noise of S2 and comes
# within 0.5x of it; at 2x, default tolerances keep CAPTURE_RADIUS wherever
# S2 = (alpha1 u+, alpha2 theta+) has alpha1 <= 45 and scale >= 0.01, and
# alpha1 <= (gamma + 1) / (gamma - 1) <= 41 where alpha2 > 0 and gamma >= 1.05
CAPTURE_NOISE = 2.0                   # * the trace's error noise at S2, S2 capture
BASIN_SAFETY = 0.5                    # on S2's largest certified level, for rounding
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
_MIN_ROW_STEP = 1e-5                  # an outer leg's shortest step with a residual row
# the subsonic decay is fitted where 1e-9 scale <= |U - u+| <= 1e-2 scale;
# every decay fit, the sonic one too, needs at least TAIL_MIN samples
TAIL_WINDOW = (1e-9, 1e-2)
TAIL_MIN = 50


def tail_rows(xi: np.ndarray, U: np.ndarray, s: SystemData) -> np.ndarray:
    """Which samples the exponential decay is fitted on: xi > 0 and |U - u+|
    in the ``TAIL_WINDOW`` times scale."""
    y = np.abs(U - s.u_plus)
    return (y >= TAIL_WINDOW[0] * s.scale) & (y <= TAIL_WINDOW[1] * s.scale) & (xi > 0.0)


def exponential_tail(xi: np.ndarray, U: np.ndarray, Theta: np.ndarray,
                     s: SystemData) -> tuple[float, float, float, int]:
    """Least-squares lines of log|U - u+| and of log|Theta - theta+| over xi
    on the ``tail_rows`` (the latter where Theta != theta+): (slope,
    intercept, slope of the Theta line, number of tail rows).  Raises
    TailTooShort below ``TAIL_MIN`` rows."""
    mask = tail_rows(xi, U, s)
    n = int(np.count_nonzero(mask))
    if n < TAIL_MIN:
        raise TailTooShort(f"{n} samples in the exponential tail window")
    slope, intercept = np.polyfit(xi[mask], np.log(np.abs(U - s.u_plus)[mask]), 1)
    z = np.abs(Theta - s.theta_plus)
    zmask = mask & (z > 0.0)
    slope_th, _ = np.polyfit(xi[zmask], np.log(z[zmask]), 1)
    return slope, intercept, slope_th, n


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


@dataclass(frozen=True)
class Membership:
    """Result of a curve-membership query."""

    on_curve: bool
    parameter: float
    distance: float
    refined: bool


class _TailFit(NamedTuple):
    """``exponential_tail`` of an inner grid against its own flight time,
    with the grid's first tail row and its flight time there."""

    slope: float
    intercept: float
    slope_theta: float
    n: int
    first: int
    xi_first: float


class _Grid(NamedTuple):
    """A curve's inner grid along its graph and the reductions of what its
    profiles share: every profile ends with the grid's rows from some row
    j on, and reads the suffix values at j.

    ``w`` holds the n nodes, ``flights`` the n - 1 panel flight times and
    ``rows`` the (u, theta, u', theta') rows at w[1:].  Per row j:
    ``residual`` is the largest ``row_residuals`` of rows[j:], and
    ``diff_min`` and ``diff_max`` (one column each for V, U and Theta) the
    extremes of the differences along rows[j:], +inf and -inf at the last
    row.  ``tail`` is, on a gamma curve with enough tail rows, the fit of
    the rows against the grid's own flight time cumsum(flights); None
    otherwise."""

    w: np.ndarray
    flights: np.ndarray
    rows: np.ndarray
    residual: np.ndarray
    diff_min: np.ndarray
    diff_max: np.ndarray
    tail: _TailFit | None


def _grid(s: SystemData, graph: SlowGraph, w0: float, exponential: bool) -> _Grid:
    """The inner grid from the graph point at w0 down to ~1e-10 of S1, 16
    nodes a decade, and its suffix reductions."""
    w_stop = _S1_OFFSET * s.scale / math.hypot(*graph.e_slow)
    n_pts = max(60, int(round(math.log10(abs(w0) / w_stop) * 16)) + 1)
    w = math.copysign(1.0, w0) * np.geomspace(abs(w0), w_stop, n_pts)
    rows = np.hstack([graph.points(w[1:]), graph.velocity(w[1:])])
    flights = graph.flight_times(w)
    U, Theta = rows[:, 0], rows[:, 1]
    d = np.diff(np.column_stack([specific_volume(s, U), U, Theta]), axis=0)[::-1]
    end = np.full((1, 3), math.inf)
    tail = None
    if exponential:
        tau = np.cumsum(flights)
        try:
            fit = exponential_tail(tau, U, Theta, s)
        except TailTooShort:
            pass
        else:
            j = int(np.argmax(tail_rows(tau, U, s)))
            tail = _TailFit(*fit, j, tau[j])
    return _Grid(w, flights, rows,
                 np.maximum.accumulate(row_residuals(s, rows)[::-1])[::-1],
                 np.vstack([np.minimum.accumulate(d)[::-1], end]),
                 np.vstack([np.maximum.accumulate(d)[::-1], -end]), tail)


class _StepRows(NamedTuple):
    """The residual rows of the first ``n`` steps of a profile orbit: a row
    (dense output and slope at the midpoint) for each step at least
    ``_MIN_ROW_STEP`` long, ``upto[i]`` of them among the first i steps, and
    ``sup[m]`` the largest ``row_residuals`` of the first m rows (-inf for
    none)."""

    n: int
    rows: np.ndarray
    upto: np.ndarray
    sup: np.ndarray


_NO_STEP_ROWS = _StepRows(0, np.empty((0, 4)), np.zeros(1, dtype=int),
                          np.full(1, -math.inf))


def _midpoint_rows(steps, t_old: np.ndarray, t_new: np.ndarray, first: int):
    """Which steps first, first + 1, .. running from t_old to t_new are long
    enough for a residual row, and the rows at their midpoints."""
    kept = t_old - t_new >= _MIN_ROW_STEP
    y, dy = steps.dense(0.5 * (t_new[kept] + t_old[kept]), np.flatnonzero(kept) + first,
                        slopes=True)
    return kept, np.hstack([y, dy])


class Leg(NamedTuple):
    """A profile as ``Curve.leg`` cuts it from its curve, in forward order,
    xi = 0 at the boundary, with the checks of its rows.

    ``residual_sup`` is the largest ``row_residuals`` of ``rows``;
    ``diff_min`` and ``diff_max`` are the extremes of the differences of
    V = (v+/u+) u, u and theta along ``points``.  ``decay`` is (rate,
    amplitude, rate of theta, tail rows) of the exponential fit of the
    curve's inner grid when the profile's tail rows are exactly the grid's:
    the fit of ``exponential_tail`` on the profile, up to rounding, read off
    the curve; None when the profile must be fitted on its own."""

    xi: np.ndarray
    points: np.ndarray
    rows: np.ndarray
    residual_sup: float
    diff_min: np.ndarray
    diff_max: np.ndarray
    decay: tuple | None


def _reach(y: np.ndarray, pidx: int) -> list:
    """Minus the least parameter (column ``pidx``) among the step ends ``y``
    up to each, nondecreasing: the first step end at or below q, where a
    run from above q first crosses it, is bisect_left(-q)."""
    return np.maximum.accumulate(-y[:, pidx]).tolist()


class _Orbit:
    """A curve's profile orbit: the backward run with ``_LEG_SETTINGS`` from
    the graph point ``edge`` at ``w_start``, the curve's side times its
    graph radius, stepped only as far as a caller has asked, and the one
    inner grid from that point down the graph to S1, with the reductions
    its profiles share (``_Grid``).

    Every stop on the curve beyond its graph radius, a refined membership
    value or a profile's outer leg, is a prefix of this one run, and the
    steps of a run do not depend on where it stops, so ``stop`` returns
    what ``integrate`` returns for the same field, start, settings and
    crossing of the curve's parameter, column ``pidx``.  The residual rows
    of the steps a profile passes whole are prefixes too: ``step_rows``
    keeps them with a running maximum of their residuals, for as many steps
    as the run has when a profile first needs more.  The run is made at the
    first stop and the grid at the first ``leg``, each under the lock, and
    the step rows and the run's ``reach`` grow under it, each replaced
    whole by a longer one, so racing threads make one of each and read the
    same bits; a profile inside the graph radius starts no run.  A stop's
    result carries views of the run's one step record.
    """

    __slots__ = ("system", "graph", "w_start", "edge", "pidx", "exponential", "lock",
                 "run", "reach", "inner", "rows")

    def __init__(self, s: SystemData, graph: SlowGraph, w_start: float, pidx: int,
                 exponential: bool):
        self.system, self.graph, self.w_start = s, graph, w_start
        self.edge = graph.points(w_start)
        self.pidx, self.exponential = pidx, exponential
        self.lock = threading.Lock()
        self.run = self.inner = None
        self.reach = []
        self.rows = _NO_STEP_ROWS

    def stop(self, q: float) -> IntegrationResult:
        """``integrate``'s result for the crossing of parameter q beyond
        ``edge``, on the first step end at or below q: the stored steps'
        ``_reach`` is bisected without the lock; the run is made, or
        stepped on, under it, only when none of them reaches q."""
        events = (component_crosses(self.pidx, q),)
        reach = self.reach
        k = bisect_left(reach, -q)
        if k == len(reach):
            with self.lock:
                if self.run is None:
                    self.run = Run(phase_field(self.system), self.edge, _LEG_SETTINGS)
                run = self.run
                reach = self.reach = _reach(run.steps(run.n_steps).y, self.pidx)
                k = bisect_left(reach, -q)
                if k == len(reach):
                    k = run.step_until(events)
                    self.reach = _reach(run.steps(run.n_steps).y, self.pidx)
        return self.run.stopped_by(events, k)

    def step_rows(self, n: int) -> tuple[np.ndarray, float]:
        """The residual rows of the run's first n steps (taken already),
        in step order, and their largest residual (-inf for none)."""
        rec = self.rows
        if rec.n < n:
            with self.lock:
                rec = self.rows
                if rec.n < n:
                    steps = self.run.steps(self.run.n_steps)
                    t = steps.t[rec.n:]
                    kept, rows = _midpoint_rows(steps, t[:-1], t[1:], rec.n)
                    sup = np.maximum.accumulate(
                        np.concatenate([rec.sup[-1:], row_residuals(self.system, rows)]))
                    rec = self.rows = _StepRows(
                        self.run.n_steps, np.vstack([rec.rows, rows]),
                        np.concatenate([rec.upto, rec.upto[-1] + np.cumsum(kept)]),
                        np.concatenate([rec.sup, sup[1:]]))
        m = int(rec.upto[n])
        return rec.rows[:m], float(rec.sup[m])

    def grid(self) -> _Grid:
        """The inner grid, made under the lock at its first use."""
        if self.inner is None:
            with self.lock:
                if self.inner is None:
                    self.inner = _grid(self.system, self.graph, self.w_start,
                                       self.exponential)
        return self.inner

    def first_row(self, w: float) -> int:
        """The grid row a leg from the graph point at ``w`` joins: 0 at
        ``w_start``; inside, the row of the first node at most
        ``_FIRST_PANEL`` |w|."""
        if w == self.w_start:
            return 0
        return int(np.searchsorted(-np.abs(self.grid().w), -_FIRST_PANEL * abs(w))) - 1

    def leg(self, w: float) -> tuple:
        """The inner leg from the graph point at ``w`` down to ~1e-10 of S1,
        quadrature of the reduced flow along the graph: the flight time
        across each panel, and the points and residual rows at the panels'
        ends.  At ``w_start`` it is the grid, 16 panels a decade; inside,
        the grid's nodes from the first at most ``_FIRST_PANEL`` |w|, after
        one panel of its own from w to that node."""
        g = self.grid()
        flights, rows = g.flights, g.rows
        if w != self.w_start:
            j = self.first_row(w)
            flights = np.concatenate([self.graph.flight_times([w, g.w[j + 1]]),
                                      flights[j + 1:]])
            rows = rows[j:]
        return flights, rows[:, :2], rows


@dataclass(frozen=True)
class Curve:
    """A traced existence curve, sampled from S1 outward (backward-xi order).

    S1 itself is included as the first sample (the degenerate constant
    layer); the axis terminal point, when present, is the last sample but is
    excluded from the membership parameter range since it violates the
    positivity constraints; ``terminal_point`` reads it off the samples.
    ``graph`` is the invariant-manifold graph at S1 the curve leaves along.
    ``steps`` is the record of the trace's backward run from r* (None for a
    gamma2 that ends on the graph), whose dense output is the curve beyond
    r* (``predict``).
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
    graph: SlowGraph = field(repr=False)
    steps: Steps | None = field(repr=False, compare=False)
    orbit: _Orbit = field(repr=False, compare=False)

    @property
    def graph_radius(self) -> float:
        """r*, the |w| the profile orbit starts at."""
        return abs(self.orbit.w_start)

    @property
    def terminal_point(self) -> PhasePoint:
        """The last sample: the axis point, S2's capture point or S2's own
        graph point, the entry into S2's certified basin on a gamma2 of
        ``trace_gamma2_to_basin``, or where the step budget ran out."""
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
        return self.graph.point(self.graph_w(q))[1 - self.param_index]

    @cached_property
    def _reach(self) -> list:
        """``_reach`` of the trace run's step ends."""
        return _reach(self.steps.y, self.param_index)

    def predict(self, q: float) -> float:
        """The curve value at parameter q (inside the traced span).

        Inside r* it is the graph point at q.  Beyond, it is the trace
        run's own dense output on the first step whose end reaches q,
        bisected on ``_reach`` as ``_Orbit.stop`` finds its stop, at the
        root of that step's quartic p(x) = q, found from the chord's root
        by safeguarded Newton steps in Python floats.
        """
        lo, hi = self.param_range
        if not lo <= q <= hi:
            raise OutOfRange(
                f"{self.label}: parameter {q} outside traced span [{lo}, {hi}]")
        if not self.beyond_graph(q):
            return self._gap_value(q)
        pidx, steps = self.param_index, self.steps
        i = min(bisect_left(self._reach, -q), len(steps.h)) - 1
        h = float(steps.h[i])
        (y0, y1), Q = steps.y[i:i + 2].tolist(), steps.Q[i].tolist()
        p0, p1 = y0[pidx], y1[pidx]
        c1, c2, c3, c4 = Q[pidx]
        a, b = 0.0, 1.0           # the root's bracket: p(x) > q at a, <= q at b
        # every step end short of q only where the parameter turns back on the last step
        x = (p0 - q) / (p0 - p1) if p1 <= q else 1.0
        for _ in range(_NEWTON_STEPS):
            g = p0 + h * (x * (c1 + x * (c2 + x * (c3 + x * c4)))) - q
            a, b = (x, b) if g > 0.0 else (a, x)
            dg = h * (c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * (4.0 * c4))))
            x_new = x - g / dg if dg else 0.5 * (a + b)
            x = x_new if a <= x_new <= b else 0.5 * (a + b)
            if abs(g) <= 1e-15 * abs(p0):     # down to p(x)'s rounding: no step helps
                break
        c1, c2, c3, c4 = Q[1 - pidx]
        return y0[1 - pidx] + h * (x * (c1 + x * (c2 + x * (c3 + x * c4))))

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
            res = self.orbit.stop(q)
        except LayerError:
            return None
        if res.event.kind != COMPONENT_CROSSES:
            return None
        pt = res.event.point
        return pt.theta if self.param_index == 0 else pt.u

    def leg(self, q: float) -> Leg:
        """The profile to boundary parameter q, a cut of the orbit, with the
        checks of its rows (``Leg``).

        Beyond r* the outer leg is the orbit's stop at q (the one
        ``refine_value`` makes), reversed; a row is the dense output and its
        derivative at the midpoint (where the interpolant is independent of
        the step-end field values) of each step's part in [t_event, 0] at
        least 1e-5 long.  Inside r* it is the graph point at q, with no row.
        The orbit's inner leg from there follows (``_Orbit.leg``).  The
        profile's own points and rows are those up to its first grid row;
        the checks evaluate only them and read the rest off the orbit: the
        rows of the steps the stop passes whole (``_Orbit.step_rows``) and
        the grid's suffix reductions.  Raises ProfileDiverged when the orbit
        ends before it reaches q."""
        pidx, orbit, s = self.param_index, self.orbit, self.system
        if self.beyond_graph(q):
            res = orbit.stop(q)
            if res.event.kind != COMPONENT_CROSSES:
                raise ProfileDiverged(
                    f"backward profile run ended with {res.event.kind} before "
                    "reaching the boundary data")
            t_ev, w = res.event.xi, orbit.w_start
            xi = (res.xi - t_ev)[::-1]
            pts = res.points[::-1]
            # the stop passes its first k - 1 steps whole; of the last one
            # it takes the part from res.xi[-2] down to res.xi[-1] = t_ev
            k = res.n_steps
            rows, sup = orbit.step_rows(k - 1)
            kept, last = _midpoint_rows(res.steps, res.xi[-2:-1], res.xi[-1:], k - 1)
            if kept[0]:
                rows = np.vstack([rows, last])
                sup = max(sup, float(row_residuals(s, last)[0]))
        else:
            w = self.graph_w(q)
            xi, pts, rows = np.zeros(1), self.graph.points(w)[None, :], np.empty((0, 4))
            sup = -math.inf
        flights, inner_pts, inner_rows = orbit.leg(w)
        # the inner leg's first flight starts at the outer leg's last sample
        xi_inner = np.cumsum(np.concatenate([xi[-1:], flights]))[1:]
        grid, j, n_own = orbit.grid(), orbit.first_row(w), len(xi)
        xi, pts = np.concatenate([xi, xi_inner]), np.vstack([pts, inner_pts])
        # the differences along the own points and on to the first grid row
        own = pts[:n_own + 1]
        d = np.diff(np.column_stack([specific_volume(s, own[:, 0]), own[:, 0], own[:, 1]]),
                    axis=0)
        # the profile's tail rows are the grid's when it holds the grid's
        # rows from the first tail row on and none of its own points is one
        fit, decay = grid.tail, None
        if (fit is not None and j <= fit.first
                and not tail_rows(xi[:n_own], pts[:n_own, 0], s).any()):
            # the grid's lines, with xi measured from the profile's boundary
            c = xi[n_own + fit.first - j] - fit.xi_first
            decay = (float(-fit.slope), math.exp(fit.intercept - fit.slope * c),
                     float(-fit.slope_theta), fit.n)
        return Leg(xi, pts, np.vstack([rows, inner_rows]),
                   max(sup, float(grid.residual[j])),
                   np.minimum(d.min(axis=0), grid.diff_min[j]),
                   np.maximum(d.max(axis=0), grid.diff_max[j]), decay)


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
    INSIDE_ELLIPSE: TERMINAL_CONVERGED_TO_S2,
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
        terminal, steps = TERMINAL_CONVERGED_TO_S2, None
    else:
        res = integrate(phase_field(s), pts[-1], opts.integration_settings(),
                        events=events, max_state_step=cap)
        pts = np.concatenate((pts, res.points[1:]))
        terminal, steps = _TERMINALS[res.event.kind], res.steps
    if label == CURVE_GAMMA2:
        expected = (TERMINAL_CONVERGED_TO_S2 if s.alpha2 > 0.0
                    else TERMINAL_HIT_THETA_AXIS)
        if terminal == TERMINAL_CONVERGED_TO_S2 and s.alpha2 <= 0.0:
            # S2 lies on theta = 0 or, within the capture radius, below it:
            # the capture at S2 is the axis terminal
            terminal = TERMINAL_HIT_THETA_AXIS
        if terminal != expected and terminal != TERMINAL_BUDGET:
            raise UnexpectedTerminal(
                f"gamma2 ended with {terminal}, but alpha2 = {s.alpha2} predicts {expected}")

    pidx = 1 if label == CURVE_GAMMA2 else 0
    noise = 1e3 * tol
    samples = _thin(pts, s, pidx, keep_radius=10.0 * eps,
                    floor=opts.thin_spacing * scale, noise=noise)
    _validate_curve(label, samples, s, eps, terminal, noise)
    return Curve(label=label, samples=samples, terminal=terminal,
                 seed_offset=eps, system=s, graph=graph, steps=steps,
                 orbit=_Orbit(s, graph, side * float(radii[-1]), pidx,
                              exponential=label != CURVE_SIGMA))


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
    opts = opts or TraceOptions()
    if branch == CURVE_GAMMA1:
        events = [u_crosses_zero()]
    else:
        events = [theta_crosses_zero(), _s2_capture(s, opts)]
    side = 1.0 if branch == CURVE_GAMMA2 else -1.0
    return _trace(s, branch, graph, side, events, opts)


def _s2_capture(s: SystemData, opts: TraceOptions) -> EventSpec:
    """Capture within ``CAPTURE_RADIUS * scale`` of S2, widened to
    ``CAPTURE_NOISE`` times the trace's error noise at S2, abs_tol +
    rel_tol |S2|, inside which a loose trace hovers instead of closing in."""
    noise = opts.abs_tol + opts.rel_tol * math.hypot(s.s2.u, s.s2.theta)
    return near_equilibrium(s.s2, max(CAPTURE_RADIUS * s.scale, CAPTURE_NOISE * noise))


class S2Basin(NamedTuple):
    """The ellipse x^T P x <= level, x = (u, theta) - ``center`` with
    ``center`` S2, that ``s2_basin`` certifies to lie in S2's basin of the
    backward flow; ``P`` holds (p00, p01, p11)."""

    center: tuple
    P: tuple
    level: float

    def event(self) -> EventSpec:
        """Entry into the ellipse, an ``inside_ellipse`` event."""
        return inside_ellipse(self.center, self.P, self.level)


def s2_basin(s: SystemData) -> S2Basin | None:
    """A quadratic Lyapunov sublevel set around S2 from which every
    backward orbit converges to S2 without leaving u > 0, theta > 0 (the
    region-of-attraction estimate of Khalil, Nonlinear Systems, 3rd ed.,
    Sec. 8.2); None unless S2 lies in the open quadrant and attracts
    backward, its backward Jacobian J = -``jacobian(S2)`` having a negative
    trace and a positive determinant.

    P solves J^T P + P J = -I in closed form, P = (det J I + B^T B) /
    (-2 tr J det J) with B = J - tr J I.  With x = (a, b) = y - S2 and du2
    = u_S2 - u+, the cubic field at y is -J x + g(x) exactly, where g =
    (a^2/mu, (c_sq - 3 du2/(2 kappa)) a^2 + c_mix a b - a^3/(2 kappa)), so
    |g| <= q |x|^2 + c3 |x|^3 by |a| <= |x| and |a b| <= |x|^2 / 2.
    Backward, x' = J x - g(x), and V = x^T P x has V' = -|x|^2 - 2 x^T P g
    <= -|x|^2 + 2 lam_max(P) |x| (q |x|^2 + c3 |x|^3) < 0 for 0 < |x| < r,
    r the positive root of 2 lam_max (q r + c3 r^2) = 1, and {V <= c}
    lies in |x| <= r for c <= lam_min(P) r^2.  c is cut to d^2 / (n^T P^-1
    n) for each axis, the line n.x = -d at distance d from S2, so that the
    set lies in the open quadrant, and then multiplied by
    ``BASIN_SAFETY``.

    In exact arithmetic the set is positively invariant under the backward
    flow, and every orbit in it tends to S2.  Not rigorous: P, its
    eigenvalues, q, r and c are computed in floating point, their rounding
    covered by ``BASIN_SAFETY`` but not bounded; and an orbit traced into
    the set is the integrator's numerical orbit, within its tolerance of
    the true one, as one captured within ``CAPTURE_RADIUS`` is.  The
    estimate is crude: on a stiff node P is as eccentric as the ratio of
    J's rates, and the set shrinks with it.
    """
    u2, th2 = float(s.s2.u), float(s.s2.theta)
    (a, b), (c, d) = (-jacobian(s.s2, s)).tolist()
    tr, det = a + d, a * d - b * c
    if not (tr < 0.0 and det > 0.0 and u2 > 0.0 and th2 > 0.0):
        return None
    den = -2.0 * tr * det
    p00, p11 = (det + c * c + d * d) / den, (det + a * a + b * b) / den
    p01 = -(a * c + b * d) / den
    det_p = p00 * p11 - p01 * p01
    lam_max = 0.5 * (p00 + p11) + math.hypot(0.5 * (p00 - p11), p01)
    lam_min = det_p / lam_max
    q = math.hypot(1.0 / s.gas.mu,
                   abs(s.c_sq - 1.5 * (u2 - s.u_plus) / s.gas.kappa) + 0.5 * abs(s.c_mix))
    c3 = 0.5 / s.gas.kappa
    r = (1.0 / lam_max) / (q + math.sqrt(q * q + 2.0 * c3 / lam_max))
    level = min(lam_min * r * r, u2 * u2 * det_p / p11, th2 * th2 * det_p / p00)
    return S2Basin((u2, th2), (p00, p01, p11), BASIN_SAFETY * level)


def trace_gamma2_to_basin(s: SystemData, graph: SlowGraph,
                          opts: TraceOptions | None = None) -> Curve:
    """gamma2 as ``trace_gamma`` traces it, but stopped where it enters
    S2's certified basin (``s2_basin``), terminal ``converged_to_s2``.

    The curve is a prefix of ``trace_gamma``'s, its samples thinned and
    validated up to the stop; it ends far short of S2, so only its
    terminal kind is meant to be read.  The theta = 0 crossing comes
    first among the events and the capture at S2 (``_s2_capture``)
    last, the terminal wherever no basin is certified.
    """
    opts = opts or TraceOptions()
    basin = s2_basin(s)
    events = [theta_crosses_zero(), _s2_capture(s, opts)]
    if basin is not None:
        events.insert(1, basin.event())
    return _trace(s, CURVE_GAMMA2, graph, 1.0, events, opts)


def curve_membership(c: Curve, p: PhasePoint, tol: float = TOL_MEMBER) -> Membership:
    """Decide whether a phase point lies on a traced curve.

    The curve is parameterized by its strictly monotone coordinate (u for
    sigma/gamma1, theta for gamma2), and its value there is read off the
    traced curve itself (``Curve.predict``): the graph inside r*, the trace
    run's dense output beyond.  Borderline distances (between tol/3 and 10
    tol, relative) are refined before deciding: the value is read off the
    curve's profile orbit (``Curve.refine_value``), at the stop a profile
    to the same boundary makes.

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
