"""Adaptive explicit Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 5(4) embedded pair (scipy's RK45), which
carries a free quartic interpolant.  Events are located by sign change on
step endpoints followed by bisection on the dense output, so event
functions only need to be evaluable, not differentiable.  Every event is
terminal: the first one triggered ends the run.  The phase field
is smooth and non-stiff away from the singular line u = 0, so an explicit
pair is appropriate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45

from .errors import NonFinite, StepUnderflow
from .system import PhasePoint

FORWARD = "forward"
BACKWARD = "backward"

U_CROSSES_ZERO = "u_crosses_zero"
THETA_CROSSES_ZERO = "theta_crosses_zero"
NEAR_EQUILIBRIUM = "near_equilibrium"
LEFT_REGION = "left_region"
COMPONENT_CROSSES = "component_crosses"
BUDGET = "budget"

_T_BOUND = 1e300
_MIN_STEP_FACTOR = 1e-14


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
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
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

    direction -1 triggers on + -> -, +1 on - -> +, 0 on any sign change.
    The event stops the integration at the bracketed location.
    """

    kind: str
    fn: Callable[[float, np.ndarray], float]
    direction: int = -1


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
        return float(np.linalg.norm(y - tgt)) - radius

    return EventSpec(NEAR_EQUILIBRIUM, fn)


def left_region(contains: Callable[[np.ndarray], bool]) -> EventSpec:
    """Exit from a region given by a boolean membership predicate."""
    return EventSpec(LEFT_REGION, lambda t, y: 1.0 if contains(y) else -1.0)


def component_crosses(index: int, value: float, kind: str = COMPONENT_CROSSES) -> EventSpec:
    """State component crosses a given value (either direction)."""
    return EventSpec(kind, lambda t, y: y[index] - value, direction=0)


@dataclass
class IntegrationResult:
    """Trajectory samples in traversal order plus the first triggered event.

    ``segments`` holds (t_lo, t_hi, dense_output) triples covering the
    traversal, usable for interpolation and derivative estimates.
    """

    xi: np.ndarray
    points: np.ndarray
    event: Event
    n_steps: int
    segments: list = field(default_factory=list)


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if direction < 0:
        return g_old > 0.0 >= g_new
    if direction > 0:
        return g_old < 0.0 <= g_new
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
    if ev.direction < 0:
        return g0 <= 0.0
    if ev.direction > 0:
        return g0 >= 0.0
    return g0 == 0.0


def integrate(fieldfn: Callable[[float, np.ndarray], np.ndarray],
              start,
              settings: IntegrationSettings = IntegrationSettings(),
              events: Sequence[EventSpec] = (),
              max_state_step: float | None = None) -> IntegrationResult:
    """Integrate a planar field from ``start`` until an event or the budget.

    Parameters
    ----------
    fieldfn : callable(xi, y) -> array of shape (2,)
        The phase velocity.  Must be pure; it is checked for finiteness.
    start : PhasePoint or array-like of shape (2,)
        Initial point; integration starts at xi = 0.
    settings : IntegrationSettings
        Tolerances, step bounds, budget, direction.
    events : sequence of EventSpec
        Events, all terminal; the first one triggered (bracketed by bisection on
        the dense output) stops the run.  If none triggers before the step
        budget is exhausted, the result carries a ``budget`` event.
    max_state_step : float, optional
        Emit extra dense-output samples so that no state component changes
        by more than this amount between consecutive samples.

    Raises
    ------
    NonFinite
        If the field returns NaN or infinity.
    StepUnderflow
        If the error controller drives the step below 1e-14 * (1 + |xi|).
    """
    y0 = start.as_array() if isinstance(start, PhasePoint) else np.asarray(start, float)

    def fun(t, y):
        out = np.asarray(fieldfn(t, y), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFinite(f"field returned {out} at xi={t}, y={y}")
        return out

    fun(0.0, y0)  # reject fields that are non-finite at the start
    sign = 1.0 if settings.direction == FORWARD else -1.0

    # events already satisfied at the start trigger immediately
    g_prev = {}
    for ev in events:
        g0 = float(ev.fn(0.0, y0))
        if _immediate(ev, g0):
            pt = PhasePoint(float(y0[0]), float(y0[1]))
            return IntegrationResult(xi=np.array([0.0]), points=y0[None, :].copy(),
                                     event=Event(ev.kind, 0.0, pt), n_steps=0)
        g_prev[id(ev)] = g0

    solver = RK45(fun, 0.0, y0, t_bound=sign * _T_BOUND,
                  max_step=settings.h_max, rtol=settings.rel_tol,
                  atol=settings.abs_tol,
                  first_step=settings.h_init)
    xs = [0.0]
    ys = [y0.copy()]
    segments = []
    n_steps = 0

    def emit(seg, t_lo, t_hi, y_hi):
        # subdivide the step so no component moves more than max_state_step;
        # capped so runaway trajectories cannot demand absurd grids
        if max_state_step is not None:
            dy = float(np.max(np.abs(y_hi - ys[-1])))
            n_sub = min(int(dy / max_state_step), 1000)
            if n_sub >= 1:
                for t_mid in np.linspace(t_lo, t_hi, n_sub + 2)[1:-1]:
                    xs.append(float(t_mid))
                    ys.append(np.asarray(seg(t_mid), dtype=float))
        xs.append(float(t_hi))
        ys.append(np.asarray(y_hi, dtype=float))

    while n_steps < settings.max_steps:
        msg = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(f"step controller failed: {msg}")
        n_steps += 1
        t_old = solver.t_old
        t_new = solver.t
        y_new = solver.y
        if abs(t_new - t_old) < _MIN_STEP_FACTOR * (1.0 + abs(t_new)):
            raise StepUnderflow(
                f"step size {abs(t_new - t_old)} below floor at xi={t_new}")
        seg = solver.dense_output()
        segments.append((t_old, t_new, seg))

        triggered = []
        for ev in events:
            g_new = float(ev.fn(t_new, y_new))
            if _crossed(g_prev[id(ev)], g_new, ev.direction):
                t_ev = _bisect_event(ev, seg, t_old, t_new, g_prev[id(ev)])
                triggered.append((abs(t_ev - t_old), t_ev, ev))
            g_prev[id(ev)] = g_new
        if triggered:
            triggered.sort(key=lambda item: item[0])
            _, t_ev, ev = triggered[0]
            y_ev = np.asarray(seg(t_ev), dtype=float)
            emit(seg, t_old, t_ev, y_ev)
            pt = PhasePoint(float(y_ev[0]), float(y_ev[1]))
            return IntegrationResult(xi=np.asarray(xs), points=np.vstack(ys),
                                     event=Event(ev.kind, t_ev, pt),
                                     n_steps=n_steps, segments=segments)
        emit(seg, t_old, t_new, y_new)
        if solver.status == "finished":
            break

    y_last = ys[-1]
    pt = PhasePoint(float(y_last[0]), float(y_last[1]))
    return IntegrationResult(xi=np.asarray(xs), points=np.vstack(ys),
                             event=Event(BUDGET, float(xs[-1]), pt),
                             n_steps=n_steps, segments=segments)
