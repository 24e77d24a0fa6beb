"""Adaptive explicit Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 5(4) embedded pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980)) with its free quartic interpolant.  It is
a literal port of scipy's ``RK45``: the same tableau, the same
floating-point operations in the same order, the same error norm, step
controller and initial-step rule.  Every accepted step and its dense output
are therefore bitwise what scipy computes, without scipy's import cost.
``Run.step`` is the whole step: the stages, the retry loop and the record
write; ``_initial_step`` sizes a run's first step.

Only a reduction can depend on how the linear-algebra library orders a
sum, so each one stays the ``np.dot`` scipy makes, on scipy's operands:
the stage sums K[:s].T a_s, the update sum K[:-1].T b, the error sum K.T
e, the sum of squares of every RMS norm (``_rms``), and the dense-output
coefficients K.T P.  Everything elementwise is one correctly rounded IEEE
operation per component, with the same bits on Python floats as in numpy
on every host, and runs on Python floats: the stage states y + (sum) h,
the new point y + h (sum), the error scale atol + max(|y|, |y_new|) rtol
and the scaled error, the initial-step rule's scaled vectors, and the
field.  The run's t, y and h are Python floats; the field gets each
stage state, and an event function each step end, as a list of two.

Events are located by sign change on step endpoints followed by a plain
bisection (``_bisect_event``), each halving decided on the step's quartic
in Python floats, so event functions only need to be evaluable, not
differentiable; the stop point is then read off the dense output.  Every
event is terminal: the first one triggered ends the run, and ``Run`` is
the one step loop that stops on it.  The phase field is smooth and
non-stiff away from the singular line u = 0, so an explicit pair is
appropriate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFinite, StepUnderflow
from .gas import require_positive
from .system import PhasePoint

FORWARD = "forward"
BACKWARD = "backward"

U_CROSSES_ZERO = "u_crosses_zero"
THETA_CROSSES_ZERO = "theta_crosses_zero"
NEAR_EQUILIBRIUM = "near_equilibrium"
INSIDE_ELLIPSE = "inside_ellipse"
LEFT_REGION = "left_region"
COMPONENT_CROSSES = "component_crosses"
BUDGET = "budget"

_MIN_STEP_FACTOR = 1e-14
MAX_INSERTED = 1000   # knots ``capped_knots`` inserts into one segment at most
MIN_REL_TOL = 100 * np.finfo(float).eps   # below it the error estimate is noise
_FIRST_STEPS = 64     # steps a run's record holds before it first doubles

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
    the integration at the bracketed location.  ``fn(xi, y)`` must be pure.
    It gets xi a Python float and ``y`` a list of two Python floats, at a
    step end and at a bisection midpoint (``_bisect_event``).
    """

    kind: str
    fn: Callable[[float, list], float]
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
    """Euclidean capture within the given radius of a target point; the
    difference is taken on the floats of ``y``, the sum of squares is the
    dot np.linalg.norm makes."""
    tgt = target.as_array() if isinstance(target, PhasePoint) else np.asarray(target, float)
    tu, tth = tgt.tolist()

    def fn(t, y):
        d = np.array((y[0] - tu, y[1] - tth))
        return math.sqrt(d.dot(d)) - radius

    return EventSpec(NEAR_EQUILIBRIUM, fn)


def inside_ellipse(center, P, level: float) -> EventSpec:
    """Entry into the ellipse x^T P x <= level, x = y - center, with
    ``center`` two floats and the symmetric P given by its entries (p00,
    p01, p11); a quadratic on the floats of ``y``."""
    cu, cth = center
    p00, p01, p11 = P

    def fn(t, y):
        a, b = y[0] - cu, y[1] - cth
        return (p00 * a + 2.0 * p01 * b) * a + p11 * b * b - level

    return EventSpec(INSIDE_ELLIPSE, fn)


def left_region(contains: Callable[[list], bool]) -> EventSpec:
    """Exit from a region given by a boolean membership predicate."""
    return EventSpec(LEFT_REGION, lambda t, y: 1.0 if contains(y) else -1.0)


def component_crosses(index: int, value: float) -> EventSpec:
    """State component crosses a given value (either direction)."""
    return EventSpec(COMPONENT_CROSSES, lambda t, y: y[index] - value, direction=0)


@dataclass
class IntegrationResult:
    """A run's samples in traversal order and the event that stopped it,
    as ``Run.stopped_by`` reads them out.

    ``steps`` holds the run's first ``n_steps`` accepted steps as read-only
    views, the last one's end where the step ended, not moved to the stop.
    """

    xi: np.ndarray
    points: np.ndarray
    event: Event
    n_steps: int
    steps: Steps


def _crossed(g_old, g_new, direction: int):
    """Whether g_old -> g_new crosses zero as ``direction`` asks."""
    hit = (g_old > 0.0) & (g_new <= 0.0)
    if direction < 0:
        return hit
    return hit | ((g_old < 0.0) & (g_new >= 0.0))


def _bisect_event(ev: EventSpec, steps: Steps, i: int, t_lo: float, t_hi: float,
                  g_lo: float) -> float:
    """Bisect the event location on step i's quartic; the triggered end of
    the final bracket, as a Python float.

    Each halving decides by ``_crossed`` from g_lo on ``ev.fn`` at the
    bracket's midpoint, the step's dense output y0 + h (x (c1 + x (c2 +
    x (c3 + x c4)))) there evaluated in Python floats and passed on as a
    list of them; the bracket is halved until its width is at most 1e-12 *
    (1 + |t|), or 200 times.  The end is ``t_hi`` if no midpoint has
    crossed.
    """
    t0, h = float(steps.t[i]), float(steps.h[i])
    y0, q = steps.y[i].tolist(), steps.Q[i].tolist()
    a, b = float(t_lo), float(t_hi)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if abs(b - a) <= 1e-12 * (1.0 + abs(mid)):
            break
        x = (mid - t0) / h
        y = [yj + h * (x * (c1 + x * (c2 + x * (c3 + x * c4))))
             for yj, (c1, c2, c3, c4) in zip(y0, q)]
        if _crossed(g_lo, float(ev.fn(mid, y)), ev.direction):
            b = mid
        else:
            a = mid
    return b


def _immediate(ev: EventSpec, g0: float) -> bool:
    return g0 <= 0.0 if ev.direction < 0 else g0 == 0.0


def _dense_values(Q, h, y_old, x: np.ndarray) -> np.ndarray:
    """y_old + h * Q @ (x, x^2, x^3, x^4) at each x[i], the powers by
    cumprod; Q, h and y_old are one step's or one per x[i]."""
    powers = np.cumprod(np.repeat(x[:, None], _P.shape[1], axis=1), axis=1)
    return h * np.matmul(Q, powers[:, :, None])[:, :, 0] + y_old


class Steps(NamedTuple):
    """Accepted steps: the step ends ``t`` (n + 1) and ``y`` (n + 1, 2),
    and per step ``h`` (n) and ``Q`` (n, 2, 4).

    Step i runs from t[i] to t[i + 1] = t[i] + h[i], and its dense output
    is y[i] + h[i] * Q[i] @ (x, x^2, x^3, x^4) with x = (t - t[i]) / h[i];
    Q[i] holds the coefficients of x .. x^4 of each component.
    """

    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    Q: np.ndarray

    def values(self, i: int, t) -> np.ndarray:
        """Step i's dense output at each t[j], one row each; a row has the
        bits of a call for its t alone."""
        x = (np.asarray(t, dtype=float) - self.t[i]) / self.h[i]
        return _dense_values(self.Q[i], self.h[i], self.y[i], x)

    def dense(self, t, which, slopes: bool = False):
        """Step which[j]'s dense output at t[j], one row each, ``which`` a
        mask or indices of steps, with each row's ``values`` bits; with
        ``slopes``, also the exact xi-derivative there."""
        h, Q = self.h[which], self.Q[which]
        x = (np.asarray(t, dtype=float) - self.t[:-1][which]) / h
        y = _dense_values(Q, h[:, None], self.y[:-1][which], x)
        if not slopes:
            return y
        k = np.arange(_P.shape[1])
        return y, np.matmul(Q, ((k + 1) * x[:, None] ** k)[:, :, None])[:, :, 0]


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
    (Hairer-Norsett-Wanner I, Sec. II.4), on Python floats but for the
    sums of squares of ``_rms``.

    Raises NonFinite when the field value f0, finite as it is, overflows
    its scaled norm: the first trial step would then be 0.  The norms of
    y0 and f0 overflow to inf quietly in ``Run.step_until``'s error state,
    so that the error is the only report.
    """
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms(np.array([y / sc for y, sc in zip(y0, scale)]))
    d1 = _rms(np.array([f / sc for f, sc in zip(f0, scale)]))
    if not math.isfinite(d1):
        raise NonFinite(f"field value {f0} at xi={t0}, y={y0} overflows its scaled norm")
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    dt = h0 * direction
    y1 = [y + dt * f for y, f in zip(y0, f0)]
    f1 = fun(t0 + dt, y1)
    _require_finite_field(f1, t0 + dt, y1)
    d2 = _rms(np.array([(b - a) / sc for a, b, sc in zip(f0, f1, scale)])) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, h_max)


class Run:
    """The one step loop: the stepper state (t, y, f, h_abs), the stage
    array, and every accepted step so far, resumable.

    ``step`` takes one more accepted step.  Events do not steer the step
    control, so the steps do not depend on when, or by whom, the run is
    resumed, nor on where it will stop.  ``step_until`` steps on until a
    sequence of events is crossed, and ``stopped_by`` reads the result out
    of the step that crosses, whoever found it: what ``integrate`` returns
    for the same field, start, settings and events, whose first k steps it
    takes.

    The stepper state is Python floats: t, h_abs and the direction, and y,
    the last step end, a list of two.  f is what ``fieldfn`` returned
    there, two floats or a float64 array of shape (2,).  ``fieldfn`` is
    called with a list of two Python floats, and so is every ``ev.fn``
    at a step end.  The stage array K and the operands of its sums are
    built once: ``sums`` holds (stage, node, row of _A, K[:stage].T) of
    each stage between the first and the last, ``KB`` is K[:-1].T and
    ``KT`` K.T.

    The record, a ``Steps`` of the first ``n_steps`` steps, is written
    once per step into arrays that double, by copying into new ones, when
    they are full; a stored entry is never changed, and a step is counted
    in ``n_steps`` only once all of it is stored.  So a reader that reads
    ``n_steps`` before the record may scan that many steps while one writer
    steps on; the caller serializes the writers.
    """

    __slots__ = ("fieldfn", "settings", "t", "y", "f", "h_abs", "direction",
                 "h_max", "rtol", "atol", "K", "sums", "KB", "KT", "n_steps", "_record")

    def __init__(self, fieldfn: Callable[[float, list], Sequence[float]], start,
                 settings: IntegrationSettings = IntegrationSettings()):
        y0 = start.as_array() if isinstance(start, PhasePoint) else np.asarray(start, float)
        if y0.shape != (2,):
            raise ValueError(f"start must be a point of the plane, got shape {y0.shape}")
        if not np.all(np.isfinite(y0)):
            raise NonFinite(f"start point {y0} is not finite")
        self.fieldfn, self.settings = fieldfn, settings
        self.t, self.y = 0.0, y0.tolist()
        self.f = fieldfn(self.t, self.y)
        _require_finite_field(self.f, self.t, self.y)
        # None until the first step: the initial-step rule costs a field call
        self.h_abs = settings.h_init
        self.direction = 1.0 if settings.direction == FORWARD else -1.0
        self.h_max, self.rtol, self.atol = settings.h_max, settings.rel_tol, settings.abs_tol
        self.K = K = np.empty((len(_C) + 1, y0.size))
        self.sums = tuple((s, float(_C[s]), _A[s, :s], K[:s].T) for s in range(1, len(_C)))
        self.KB, self.KT = K[:-1].T, K.T
        self.n_steps = 0
        n = _FIRST_STEPS
        self._record = Steps(np.empty(n + 1), np.empty((n + 1, y0.size)), np.empty(n),
                             np.empty((n, y0.size, _P.shape[1])))
        self._record.t[0], self._record.y[0] = self.t, y0

    def step(self) -> None:
        """Take and record one more accepted step: one Dormand-Prince step
        retried from (t, y) until its error estimate is accepted.

        Each stage sum, the update sum K[:-1].T b and the error sum K.T e
        is one np.dot, scipy's; everything else is one correctly rounded
        operation per component on Python floats: the stage states y +
        (sum) h, the new point y + h (sum), the scale atol + max(|y|,
        |y_new|) rtol, max taking a NaN |y_new| as np.maximum does, and
        the scaled error.  The stages are checked for finiteness only when
        the error norm is not finite.  A NaN or infinite stage always
        makes it so: h != 0, and every nonzero _E entry is finite.  Stage
        1, whose _E and _B entries are 0, reaches the norm only because
        np.dot forms inf * 0 = NaN rather than skipping the zero weight,
        quietly in ``step_until``'s error state.

        Raises StepUnderflow, or NonFinite at a non-finite step end, as
        ``integrate`` does, and then records nothing.
        """
        fun, t, y, f, direction = self.fieldfn, self.t, self.y, self.f, self.direction
        rtol, atol, K = self.rtol, self.atol, self.K
        if self.h_abs is None:
            self.h_abs = _initial_step(fun, t, y, f, direction, self.h_max, rtol, atol)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.h_max)
        rejected = False
        u, th = y
        u_abs, th_abs = abs(u), abs(th)
        while True:
            if h_abs < min_step:
                raise StepUnderflow(
                    f"step controller failed: required step {h_abs} is below "
                    f"the spacing of floating-point numbers at xi={t}")
            t_new = t + h_abs * direction
            h = t_new - t
            h_abs = abs(h)
            K[0, 0], K[0, 1] = f
            for s, c, a, Ks in self.sums:
                du, dth = np.dot(Ks, a).tolist()
                K[s, 0], K[s, 1] = fun(t + c * h, [u + du * h, th + dth * h])
            bu, bth = np.dot(self.KB, _B).tolist()
            y_new = [u + h * bu, th + h * bth]
            f_new = fun(t + h, y_new)
            K[-1, 0], K[-1, 1] = f_new
            eu, eth = np.dot(self.KT, _E).tolist()
            error_norm = _rms(np.array([
                eu * h / (atol + max(abs(y_new[0]), u_abs) * rtol),
                eth * h / (atol + max(abs(y_new[1]), th_abs) * rtol)]))
            if not math.isfinite(error_norm):
                _require_finite_field(K, t, y)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        if abs(t_new - t) < _MIN_STEP_FACTOR * (1.0 + abs(t_new)):
            raise StepUnderflow(
                f"step size {abs(t_new - t)} below floor at xi={t_new}")
        if not math.isfinite(y_new[0] + y_new[1]):
            raise NonFinite(f"step from xi={t}, y={y} ends at y={y_new}")
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs * factor
        n, rec = self.n_steps, self._record
        if n == len(rec.h):
            rec = self._record = Steps(*(np.concatenate((a, np.empty_like(a))) for a in rec))
        rec.t[n + 1], rec.y[n + 1] = t_new, y_new
        rec.h[n], rec.Q[n] = h, self.KT.dot(_P)
        self.n_steps = n + 1

    def steps(self, n: int) -> Steps:
        """The first n steps, as read-only views; n at most ``n_steps`` as
        read before this call."""
        rec = self._record
        views = Steps(rec.t[:n + 1], rec.y[:n + 1], rec.h[:n], rec.Q[:n])
        for a in views:
            a.flags.writeable = False
        return views

    def step_until(self, events: Sequence[EventSpec]) -> int | None:
        """Step until one of ``events`` is crossed on the last step; that
        step's index, 0 if the run has no steps and one triggers at its
        start, or None once ``settings.max_steps`` steps are taken.  The
        steps taken so far must not cross any.  Numpy's overflow warnings
        are off while it steps: NonFinite is an overflow's one report."""
        g_prev = [float(ev.fn(self.t, self.y)) for ev in events]
        if not self.n_steps and any(map(_immediate, events, g_prev)):
            return 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.settings.max_steps - self.n_steps):
                self.step()
                t, y, crossed = self.t, self.y, False
                for i, ev in enumerate(events):
                    g = float(ev.fn(t, y))
                    crossed |= _crossed(g_prev[i], g, ev.direction)
                    g_prev[i] = g
                if crossed:
                    return self.n_steps
        return None

    def stopped_by(self, events: Sequence[EventSpec], k: int | None) -> IntegrationResult:
        """The run stopped on ``events`` on step ``k``: the first step
        whose end crosses one, as ``step_until`` returns it.

        None stops it at its step budget; 0 at its start, on the first
        listed event that triggers there; k >= 1 on step k, at the
        bisected location of each event that crosses there nearest the
        step's start, the first listed on a tie.  The stop point is step
        k's dense output there, one ``Steps.values`` call.
        """
        if k is None:
            k = self.n_steps
            steps = self.steps(k)
            return _result(steps, BUDGET, steps.t[k], steps.y[k])
        steps = self.steps(k)
        if k == 0:
            y0 = steps.y[0]
            ev = next(ev for ev in events if _immediate(ev, float(ev.fn(0.0, y0.tolist()))))
            return _result(steps, ev.kind, 0.0, y0)
        (t_old, t), (y_old, y) = steps.t[k - 1:k + 1].tolist(), steps.y[k - 1:k + 1].tolist()
        stops = []
        for ev in events:
            g_old = float(ev.fn(t_old, y_old))
            if _crossed(g_old, float(ev.fn(t, y)), ev.direction):
                t_ev = _bisect_event(ev, steps, k - 1, t_old, t, g_old)
                stops.append((abs(t_ev - t_old), t_ev, ev))
        _, t_ev, ev = min(stops, key=lambda stop: stop[0])
        return _result(steps, ev.kind, t_ev, steps.values(k - 1, [t_ev])[0])


def _result(steps: Steps, kind: str, t, y) -> IntegrationResult:
    """A run's result over ``steps``, the last step end moved to the stop (t, y)."""
    xi, points = steps.t.copy(), steps.y.copy()
    xi[-1], points[-1] = t, y
    pt = PhasePoint(float(points[-1, 0]), float(points[-1, 1]))
    return IntegrationResult(xi=xi, points=points, event=Event(kind, float(t), pt),
                             n_steps=len(steps.h), steps=steps)


def integrate(fieldfn: Callable[[float, list], Sequence[float]],
              start,
              settings: IntegrationSettings = IntegrationSettings(),
              events: Sequence[EventSpec] = (),
              max_state_step: float | None = None) -> IntegrationResult:
    """Integrate a planar field from ``start`` until an event or the budget.

    A ``Run`` stepped by ``Run.step_until`` and read out by
    ``Run.stopped_by``, and kept by nothing once the call returns; this
    function adds only the ``max_state_step`` sub-samples.  Events do not
    steer the step control, so without ``max_state_step`` a longer run of
    the same field, start and settings gives the same result, bit for bit,
    through ``Run.stopped_by`` on the first step that crosses; the
    curves' profile orbits are read that way.

    Parameters
    ----------
    fieldfn : callable(xi, y) -> two floats
        The phase velocity.  Must be pure.  The stepper calls it directly,
        with xi a Python float and y a list of two, and stores what it
        returns, two floats or a float64 array of shape (2,), as a stage.
        Its values are checked for finiteness at the start point, at the
        initial-step probe and, all stages at once, at every attempted step
        whose error norm is not finite.
    start : PhasePoint or array-like of shape (2,)
        Initial point; integration starts at xi = 0.
    settings : IntegrationSettings
        Tolerances, step bounds, budget, direction.
    events : sequence of EventSpec
        Events, all terminal.  One already triggered at the start stops
        the run there, the first listed if several are.  Otherwise the
        first step that crosses any stops it, at the crossing (bracketed by
        bisection on the dense output) nearest the step's start, the first
        listed on a tie.  If none triggers before the step budget is
        exhausted, the result carries a ``budget`` event.
    max_state_step : float, optional
        Finite and positive.  After the last step, the run's dense output
        is sampled, in one stacked evaluation, at the knots
        ``capped_knots`` inserts between the step ends so that no state
        component changes by more than this amount between consecutive
        samples (at most ``MAX_INSERTED`` per step).

    Raises
    ------
    ValueError
        If ``max_state_step`` is neither None nor finite and positive, or
        ``start`` is not a point of the plane.
    NonFinite
        If the field returns NaN or infinity, or the start point is not
        finite, or the start's field value, finite, overflows its norm
        scaled by the tolerances, or a step ends at a point that is not
        finite.  No numpy RuntimeWarning precedes it.
    StepUnderflow
        If the error controller drives the step below 1e-14 * (1 + |xi|), or
        a rejected step below ten spacings of the floating-point numbers at xi.
    """
    if max_state_step is not None and not 0.0 < max_state_step < math.inf:
        raise ValueError(
            f"max_state_step must be None or finite and positive, got {max_state_step}")
    run = Run(fieldfn, start, settings)
    res = run.stopped_by(events, run.step_until(events))
    if max_state_step is not None:
        xi, at, k = capped_knots(res.xi, res.points, max_state_step)
        points = res.points[at]
        inner = k > 0
        if inner.any():
            points[inner] = res.steps.dense(xi[inner], at[inner])
        res.xi, res.points = xi, points
    return res
