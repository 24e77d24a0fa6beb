"""Adaptive explicit Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 5(4) embedded pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980)) with its free quartic interpolant.  It is
a literal port of scipy's ``RK45``: the same tableau, the same
floating-point operations in the same order, the same error norm, step
controller and initial-step rule.  Every accepted step, and so every curve,
profile and verdict, is therefore bitwise identical to what scipy computes,
without scipy's import cost.  Events are located by sign change on step
endpoints followed by bisection on the dense output, so event functions
only need to be evaluable, not differentiable.  Every event is terminal:
the first one triggered ends the run.  The phase field is smooth and
non-stiff away from the singular line u = 0, so an explicit pair is
appropriate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFinite, StepUnderflow
from .gas import require_positive
from .system import PhasePoint

FORWARD = "forward"
BACKWARD = "backward"

U_CROSSES_ZERO = "u_crosses_zero"
THETA_CROSSES_ZERO = "theta_crosses_zero"
NEAR_EQUILIBRIUM = "near_equilibrium"
LEFT_REGION = "left_region"
COMPONENT_CROSSES = "component_crosses"
BUDGET = "budget"

_MIN_STEP_FACTOR = 1e-14
MAX_INSERTED = 1000   # knots ``capped_knots`` inserts into one segment at most
MIN_REL_TOL = 100 * np.finfo(float).eps   # below it the error estimate is noise

# Dormand-Prince 5(4) tableau with the dense-output matrix P for the optimum
# c_6 of Shampine (1986), written exactly as in scipy's RK45 so that every
# coefficient is the same correctly rounded quotient
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

_SAFETY = 0.9       # multiplies the asymptotic step-size estimate
_MIN_FACTOR = 0.2   # largest decrease of the step in one rejection
_MAX_FACTOR = 10    # largest increase of the step after an acceptance
_ERROR_EXPONENT = -1 / (4 + 1)   # the error estimator is of order 4


@dataclass(frozen=True)
class IntegrationSettings:
    """Error tolerances, step bounds, budget, and direction in xi."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float | None = None
    h_max: float = 1e12
    max_steps: int = 1_000_000
    direction: str = FORWARD

    def __post_init__(self):
        require_positive(self, ("rel_tol", "abs_tol"))
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL}, got {self.rel_tol}")
        if self.h_init is not None:
            require_positive(self, ("h_init",))
        if not self.h_max > 0.0:
            raise ValueError(f"h_max must be positive, got {self.h_max}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be forward or backward, got {self.direction!r}")


@dataclass(frozen=True)
class Event:
    """A triggered event: its kind, location in xi, and the phase point there."""

    kind: str
    xi: float
    point: PhasePoint


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function whose zero crossing marks the event.

    direction -1 triggers on + -> -, 0 on any sign change.  The event stops
    the integration at the bracketed location.
    """

    kind: str
    fn: Callable[[float, np.ndarray], float]
    direction: int = -1

    def __post_init__(self):
        if self.direction not in (-1, 0):
            raise ValueError(f"direction must be -1 or 0, got {self.direction}")


def u_crosses_zero() -> EventSpec:
    """Velocity hits zero (the flow's positivity constraint)."""
    return EventSpec(U_CROSSES_ZERO, lambda t, y: y[0])


def theta_crosses_zero() -> EventSpec:
    """Temperature hits zero (positivity of the absolute temperature)."""
    return EventSpec(THETA_CROSSES_ZERO, lambda t, y: y[1])


def near_equilibrium(target, radius: float) -> EventSpec:
    """Euclidean capture within the given radius of a target point."""
    tgt = target.as_array() if isinstance(target, PhasePoint) else np.asarray(target, float)

    def fn(t, y):
        d = y - tgt
        return math.sqrt(d.dot(d)) - radius   # the dot np.linalg.norm makes

    return EventSpec(NEAR_EQUILIBRIUM, fn)


def left_region(contains: Callable[[np.ndarray], bool]) -> EventSpec:
    """Exit from a region given by a boolean membership predicate."""
    return EventSpec(LEFT_REGION, lambda t, y: 1.0 if contains(y) else -1.0)


def component_crosses(index: int, value: float) -> EventSpec:
    """State component crosses a given value (either direction)."""
    return EventSpec(COMPONENT_CROSSES, lambda t, y: y[index] - value, direction=0)


@dataclass
class IntegrationResult:
    """Trajectory samples in traversal order plus the first triggered event.

    ``segments`` holds one (t_old, t_new, DenseStep) triple per accepted
    step, in traversal order; ``dense_eval`` evaluates them.
    """

    xi: np.ndarray
    points: np.ndarray
    event: Event
    n_steps: int
    segments: list = field(default_factory=list)


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if direction < 0:
        return g_old > 0.0 >= g_new
    return (g_old > 0.0 >= g_new) or (g_old < 0.0 <= g_new)


def _bisect_event(ev: EventSpec, seg, t_lo: float, t_hi: float,
                  g_lo: float) -> float:
    """Bisect the event location on a step's dense output.

    Returns the triggered side of the final bracket, with width at most
    1e-12 * (1 + |t|).
    """
    a, b = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if abs(b - a) <= 1e-12 * (1.0 + abs(mid)):
            break
        g_mid = ev.fn(mid, seg(mid))
        if _crossed(g_lo, g_mid, ev.direction):
            b = mid
        else:
            a = mid
    return b


def _immediate(ev: EventSpec, g0: float) -> bool:
    return g0 <= 0.0 if ev.direction < 0 else g0 == 0.0


class DenseStep:
    """Interpolant of one accepted step, polynomial in x = (t - t_old) / h.

    ``Q`` holds the coefficients of x, x^2, x^3, x^4 of each component, so
    the value at t is ``y_old + h * Q @ (x, x^2, x^3, x^4)``.
    """

    __slots__ = ("t_old", "h", "Q", "y_old")

    def __init__(self, t_old, t, y_old: np.ndarray, K: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.Q = K.T.dot(_P)
        self.y_old = y_old

    def __call__(self, t) -> np.ndarray:
        x = (np.asarray([t], dtype=float) - self.t_old) / self.h
        return _dense_values(self.Q, self.h, self.y_old, x)[0]


def _dense_values(Q, h, y_old, x: np.ndarray) -> np.ndarray:
    """y_old + h * Q @ (x, x^2, x^3, x^4) at each x[i], the powers by
    cumprod; Q, h and y_old are one step's or one per x[i]."""
    powers = np.cumprod(np.repeat(x[:, None], _P.shape[1], axis=1), axis=1)
    return h * np.matmul(Q, powers[:, :, None])[:, :, 0] + y_old


def _stacked(steps: Sequence[DenseStep], t, which=slice(None)):
    """Q, h (a column), y_old and x = (t[i] - t_old) / h of step
    ``steps[which][i]`` at t[i], the operands of ``_dense_values``."""
    t_old = np.array([st.t_old for st in steps], dtype=float)[which]
    h = np.array([st.h for st in steps], dtype=float)[which]
    Q = np.array([st.Q for st in steps], dtype=float).reshape(-1, 2, _P.shape[1])[which]
    y_old = np.array([st.y_old for st in steps], dtype=float).reshape(-1, 2)[which]
    return Q, h[:, None], y_old, (np.asarray(t, dtype=float) - t_old) / h


def dense_eval(steps: Sequence[DenseStep], t) -> tuple[np.ndarray, np.ndarray]:
    """Value and exact xi-derivative of step i's interpolant at t[i], each of
    shape (len(steps), 2); the values equal ``DenseStep.__call__``'s bits."""
    Q, h, y_old, x = _stacked(steps, t)
    y = _dense_values(Q, h, y_old, x)
    k = np.arange(_P.shape[1])
    dy = np.matmul(Q, ((k + 1) * x[:, None] ** k)[:, :, None])[:, :, 0]
    return y, dy


def capped_knots(knots: np.ndarray, points: np.ndarray, cap: float):
    """``knots`` with evenly spaced ones inserted so that no component of
    ``points`` (one row per knot) moves by more than ``cap`` between
    neighbours, the state-spacing rule of every sampled path.

    A segment [a, b] whose largest component move is ``move`` gets n =
    min(int(move / cap), MAX_INSERTED) inner knots k ((b - a) / (n + 1)) + a,
    k = 1 .. n, the operations ``np.linspace(a, b, n + 2)`` does.  Returns
    the knots, and for each the index of the input knot its segment starts
    at and its k; the input knots are those with k = 0.
    """
    moves = np.max(np.abs(np.diff(points, axis=0)), axis=1)
    parts = np.append(np.minimum(moves / cap, MAX_INSERTED).astype(int) + 1, 1)
    seg = np.repeat(np.arange(parts.size), parts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    step = np.append(np.diff(knots) / parts[:-1], 0.0)
    return k * step[seg] + knots[seg], seg, k


def _rms(x: np.ndarray):
    return math.sqrt(x.dot(x)) / x.size ** 0.5   # the dot np.linalg.norm makes


def _require_finite_field(f, t, y) -> None:
    if not np.isfinite(f).all():
        raise NonFinite(f"field returned {f} at xi={t}, y={y}")


def _initial_step(fun, t0, y0, f0, direction, h_max, rtol, atol):
    """Starting step size from the local scales of y and its derivatives
    (Hairer-Norsett-Wanner I, Sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    _require_finite_field(f1, t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, h_max)


class _Stages:
    """The stage array K of one run and its stage-sum operands, built once:
    ``sums`` holds (stage, node, row of _A, K[:stage].T) of each stage
    between the first and the last, ``KB`` is K[:-1].T and ``KE`` K.T."""

    __slots__ = ("K", "sums", "KB", "KE")

    def __init__(self, n: int):
        self.K = K = np.empty((len(_C) + 1, n))
        self.sums = tuple((s, float(_C[s]), _A[s, :s], K[:s].T)
                          for s in range(1, len(_C)))
        self.KB = K[:-1].T
        self.KE = K.T


def _rk_step(fun, t, y, f, h, st: _Stages):
    """One Dormand-Prince step of size h; the stages are left in st.K."""
    K = st.K
    K[0] = f
    for s, c, a, Ks in st.sums:
        dy = np.dot(Ks, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(st.KB, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _accepted_step(fun, t, y, f, h_abs, direction, h_max, rtol, atol, st: _Stages):
    """Retry from (t, y) until the error estimate is accepted.

    Returns (t_new, y_new, f_new, next h_abs); the stages of the accepted
    step are left in st.K.  The stages are checked for finiteness only when
    the error norm is not finite.  A NaN or infinite stage always makes it
    so: h != 0, and every nonzero _E entry is finite.  Stage 1, whose _E and
    _B entries are 0, reaches the norm only because np.dot forms inf * 0 =
    NaN rather than skipping the zero weight.  Arithmetic on an infinite
    stage may emit a numpy RuntimeWarning before the NonFinite is raised.
    """
    min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
    h_abs = min(max(h_abs, min_step), h_max)
    rejected = False
    while True:
        if h_abs < min_step:
            raise StepUnderflow(
                f"step controller failed: required step {h_abs} is below "
                f"the spacing of floating-point numbers at xi={t}")
        t_new = t + h_abs * direction
        h = t_new - t
        h_abs = abs(h)
        y_new, f_new = _rk_step(fun, t, y, f, h, st)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms(np.dot(st.KE, _E) * h / scale)
        if not math.isfinite(error_norm):
            _require_finite_field(st.K, t, y)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected = True


class Run:
    """``integrate``'s step loop, resumable: the stepper state (t, y, f,
    h_abs, stages) and every accepted step so far.

    ``step`` takes one more accepted step.  Events do not steer the step
    control, so the steps do not depend on when, or by whom, the run is
    resumed, nor on where it will stop: the ``integrate`` call that stops
    on step k of this run takes its first k steps.  ``crossing`` and
    ``step_until`` find that k for an event, with ``integrate``'s test,
    and ``stopped_by`` returns that call's result.

    The record (the step ends, the start included, and one (t_old, t_new,
    DenseStep) triple per step in ``segments``) only grows, and a step is
    counted in ``n_steps`` only once all of it is stored, so readers may
    scan the first ``n_steps`` steps while one writer steps on; the
    caller serializes the writers.
    """

    __slots__ = ("fieldfn", "settings", "t", "y", "f", "h_abs", "direction",
                 "h_max", "rtol", "atol", "stages", "segments", "_xs", "_ys", "_stacked")

    def __init__(self, fieldfn: Callable[[float, np.ndarray], np.ndarray], start,
                 settings: IntegrationSettings = IntegrationSettings()):
        y0 = start.as_array() if isinstance(start, PhasePoint) else np.asarray(start, float)
        if not np.all(np.isfinite(y0)):
            raise NonFinite(f"start point {y0} is not finite")
        self.fieldfn, self.settings = fieldfn, settings
        self.t, self.y = 0.0, y0
        self.f = fieldfn(self.t, y0)
        _require_finite_field(self.f, self.t, y0)
        # None until the first step: the initial-step rule costs a field call
        self.h_abs = settings.h_init
        self.direction = np.float64(1.0 if settings.direction == FORWARD else -1.0)
        self.h_max, self.rtol = settings.h_max, settings.rel_tol
        self.atol = np.asarray(settings.abs_tol)
        self.stages = _Stages(y0.size)
        self.segments = []
        self._xs = [0.0]
        self._ys = [y0.copy()]
        # the step ends as arrays, as far as a scan has needed them
        self._stacked = (np.empty(0), np.empty((0, y0.size)))

    @property
    def n_steps(self) -> int:
        return len(self.segments)

    def step(self) -> DenseStep:
        """Take and record one more accepted step; return its interpolant.

        Raises StepUnderflow as ``integrate`` does, and then records nothing.
        """
        t_old, y_old = self.t, self.y
        if self.h_abs is None:
            self.h_abs = _initial_step(self.fieldfn, t_old, y_old, self.f, self.direction,
                                       self.h_max, self.rtol, self.atol)
        t, y, f, h_abs = _accepted_step(self.fieldfn, t_old, y_old, self.f, self.h_abs,
                                        self.direction, self.h_max, self.rtol, self.atol,
                                        self.stages)
        if abs(t - t_old) < _MIN_STEP_FACTOR * (1.0 + abs(t)):
            raise StepUnderflow(
                f"step size {abs(t - t_old)} below floor at xi={t}")
        seg = DenseStep(t_old, t, y_old, self.stages.K)
        self.t, self.y, self.f, self.h_abs = t, y, f, h_abs
        self._xs.append(t)
        self._ys.append(y)
        self.segments.append((t_old, t, seg))
        return seg

    def _ends(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The xi and points of the first n + 1 step ends as arrays.  Only
        the ends no earlier call stacked are stacked; a stack is replaced,
        never changed, so concurrent readers each see a whole one."""
        xi, pts = self._stacked
        if len(xi) <= n:
            xi = np.concatenate([xi, np.asarray(self._xs[len(xi):n + 1])])
            pts = np.concatenate([pts, np.array(self._ys[len(pts):n + 1])])
            self._stacked = xi, pts
        return xi[:n + 1], pts[:n + 1]

    def crossing(self, ev: EventSpec) -> int | None:
        """``integrate``'s verdict on ``ev`` over the steps taken so far: 0
        if it triggers at the start, k if the first crossing is on step k,
        None if there is none yet.

        The test is ``integrate``'s, on the step ends, for all of them at
        once: ``ev.fn`` must act elementwise on the (2, n) array of step
        ends, as the component and axis events do.
        """
        xi, pts = self._ends(self.n_steps)
        g = ev.fn(xi, pts.T)
        if _immediate(ev, float(g[0])):
            return 0
        hits = (g[:-1] > 0.0) & (g[1:] <= 0.0)
        if ev.direction == 0:
            hits |= (g[:-1] < 0.0) & (g[1:] >= 0.0)
        return int(np.argmax(hits)) + 1 if hits.any() else None

    def step_until(self, ev: EventSpec) -> int | None:
        """Step until ``ev`` is crossed on the last step, as ``integrate``
        tests it; that step's index, or None once ``settings.max_steps``
        steps are taken.  The steps taken so far must not cross it."""
        g_prev = float(ev.fn(self.t, self.y))
        while self.n_steps < self.settings.max_steps:
            self.step()
            g_new = float(ev.fn(self.t, self.y))
            if _crossed(g_prev, g_new, ev.direction):
                return self.n_steps
            g_prev = g_new
        return None

    def stopped_by(self, ev: EventSpec, k: int | None) -> IntegrationResult:
        """What ``integrate`` with this run's field, start, settings and the
        one event ``ev`` returns, given ``k`` from ``crossing`` or
        ``step_until``: None for a run that spent its step budget."""
        if k is None:
            return self._spent()
        if k == 0:
            return self._result(0, ev.kind, 0.0, self._ys[0])
        t_old, t, seg = self.segments[k - 1]
        g_old = float(ev.fn(t_old, self._ys[k - 1]))
        t_ev = _bisect_event(ev, seg, t_old, t, g_old)
        return self._result(k, ev.kind, t_ev, seg(t_ev))

    def _spent(self) -> IntegrationResult:
        """The whole run, ended by its step budget."""
        n = self.n_steps
        return self._result(n, BUDGET, float(self._xs[n]), self._ys[n])

    def _result(self, k: int, kind: str, t, y) -> IntegrationResult:
        """The run's first k steps, their last end moved to the stop (t, y)."""
        xi = np.asarray(self._xs[:k + 1])
        points = np.array(self._ys[:k + 1])
        xi[-1], points[-1] = t, y
        pt = PhasePoint(float(points[-1, 0]), float(points[-1, 1]))
        return IntegrationResult(xi=xi, points=points, event=Event(kind, t, pt),
                                 n_steps=k, segments=self.segments[:k])


def integrate(fieldfn: Callable[[float, np.ndarray], np.ndarray],
              start,
              settings: IntegrationSettings = IntegrationSettings(),
              events: Sequence[EventSpec] = (),
              max_state_step: float | None = None) -> IntegrationResult:
    """Integrate a planar field from ``start`` until an event or the budget.

    One ``Run``, stepped until the first event, and kept by nothing once
    the call returns.  Events do not steer the step control, so for one
    event and no ``max_state_step`` a longer run of the same field, start
    and settings gives the same result, bit for bit, through
    ``Run.crossing`` and ``Run.stopped_by``; the engine's profile legs are
    made that way.

    Parameters
    ----------
    fieldfn : callable(xi, y) -> float64 array of shape (2,)
        The phase velocity.  Must be pure.  The stepper calls it directly;
        its values are checked for finiteness at the start point, at the
        initial-step probe and, all stages at once, at every attempted step
        whose error norm is not finite.
    start : PhasePoint or array-like of shape (2,)
        Initial point; integration starts at xi = 0.
    settings : IntegrationSettings
        Tolerances, step bounds, budget, direction.
    events : sequence of EventSpec
        Events, all terminal; the first one triggered (bracketed by bisection on
        the dense output) stops the run.  If none triggers before the step
        budget is exhausted, the result carries a ``budget`` event.
    max_state_step : float, optional
        Finite and positive.  After the last step, the run's dense output
        is sampled, in one stacked evaluation, at the knots
        ``capped_knots`` inserts between the step ends so that no state
        component changes by more than this amount between consecutive
        samples (at most ``MAX_INSERTED`` per step).

    Raises
    ------
    ValueError
        If ``max_state_step`` is neither None nor finite and positive.
    NonFinite
        If the field returns NaN or infinity, or the start point is not finite.
        An infinite field value may also emit a numpy RuntimeWarning first.
    StepUnderflow
        If the error controller drives the step below 1e-14 * (1 + |xi|), or
        a rejected step below ten spacings of the floating-point numbers at xi.
    """
    if max_state_step is not None and not 0.0 < max_state_step < math.inf:
        raise ValueError(
            f"max_state_step must be None or finite and positive, got {max_state_step}")
    run = Run(fieldfn, start, settings)
    y0 = run.y

    # events already satisfied at the start trigger immediately; g_prev
    # holds each event's last value, in the order of ``events``
    g_prev = []
    for ev in events:
        g0 = float(ev.fn(0.0, y0))
        if _immediate(ev, g0):
            return run.stopped_by(ev, 0)
        g_prev.append(g0)

    for _ in range(settings.max_steps):
        seg = run.step()
        t_old, t, y = seg.t_old, run.t, run.y
        triggered = []
        for i, ev in enumerate(events):
            g_new = float(ev.fn(t, y))
            if _crossed(g_prev[i], g_new, ev.direction):
                t_ev = _bisect_event(ev, seg, t_old, t, g_prev[i])
                triggered.append((abs(t_ev - t_old), t_ev, ev))
            g_prev[i] = g_new
        if triggered:
            triggered.sort(key=lambda item: item[0])
            _, t, ev = triggered[0]
            res = run._result(run.n_steps, ev.kind, t, seg(t))
            break
    else:
        res = run._spent()
    if max_state_step is not None:
        xi, at, k = capped_knots(res.xi, res.points, max_state_step)
        points = res.points[at]
        inner = k > 0
        if inner.any():
            points[inner] = _dense_values(*_stacked([seg for _, _, seg in res.segments],
                                                    xi[inner], at[inner]))
        res.xi, res.points = xi, points
    return res
