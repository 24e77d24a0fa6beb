import math

import numpy as np
import pytest
from scipy.optimize import brentq

from inflow_layer import (Event, EventSpec, IntegrationSettings, NonFinite,
                          PhasePoint, StepUnderflow, component_crosses,
                          integrate, left_region, near_equilibrium,
                          theta_crosses_zero, u_crosses_zero)
from inflow_layer.integrator import BACKWARD, BUDGET


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegrationSettings(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSettings(max_steps=0)
    with pytest.raises(ValueError):
        IntegrationSettings(direction="sideways")
    for bad in ({"rel_tol": math.nan}, {"rel_tol": math.inf}, {"abs_tol": math.nan},
                {"abs_tol": math.inf}, {"abs_tol": 0.0}, {"rel_tol": 1e-15},
                {"h_init": 0.0}, {"h_init": -0.1}, {"h_init": math.nan},
                {"h_max": 0.0}, {"h_max": -1.0}, {"h_max": math.nan}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            IntegrationSettings(**bad)
    # the smallest relative tolerance the error estimate can resolve is accepted
    IntegrationSettings(rel_tol=100 * np.finfo(float).eps, h_init=1e-3, h_max=math.inf)


def test_constant_field_hits_budget():
    res = integrate(lambda t, y: np.zeros(2), PhasePoint(0.3, 0.7),
                    IntegrationSettings(max_steps=25))
    assert res.event.kind == BUDGET
    assert res.n_steps == 25
    assert np.allclose(res.points[-1], [0.3, 0.7])


def test_near_equilibrium_capture_time():
    # x' = -x, y' = -2y from (1, 1): |p| = hypot(exp(-t), exp(-2t)) = 1e-8
    field = lambda t, y: np.array([-y[0], -2.0 * y[1]])
    target = brentq(lambda t: math.hypot(math.exp(-t), math.exp(-2 * t)) - 1e-8,
                    10.0, 25.0)
    res = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(),
                    events=[near_equilibrium(np.zeros(2), 1e-8)])
    assert res.event.kind == "near_equilibrium"
    assert res.event.xi == pytest.approx(target, rel=1e-2)
    assert target == pytest.approx(math.log(1e8), rel=1e-6)


def test_linear_axis_crossing():
    res = integrate(lambda t, y: np.array([-1.0, 0.0]), PhasePoint(0.5, 1.0),
                    IntegrationSettings(), events=[u_crosses_zero()])
    assert res.event.kind == "u_crosses_zero"
    assert res.event.xi == pytest.approx(0.5, abs=1e-10)
    assert abs(res.event.point.u) < 1e-10


def test_theta_crossing_and_component_event():
    field = lambda t, y: np.array([0.0, -2.0])
    res = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(),
                    events=[theta_crosses_zero()])
    assert res.event.xi == pytest.approx(0.5, abs=1e-10)
    res = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(),
                    events=[component_crosses(1, 0.25)])
    assert res.event.xi == pytest.approx(0.375, abs=1e-10)


def test_left_region_event():
    res = integrate(lambda t, y: np.array([1.0, 0.0]), PhasePoint(0.5, 1.0),
                    IntegrationSettings(),
                    events=[left_region(lambda y: y[0] < 0.8)])
    assert res.event.kind == "left_region"
    assert res.event.xi == pytest.approx(0.3, abs=1e-9)


def test_event_idempotence():
    field = lambda t, y: np.array([-1.0, 0.0])
    first = integrate(field, PhasePoint(0.5, 1.0), IntegrationSettings(),
                      events=[u_crosses_zero()])
    again = integrate(field, first.event.point, IntegrationSettings(),
                      events=[u_crosses_zero()])
    assert again.event.kind == "u_crosses_zero"
    assert abs(again.event.xi) <= 1e-10


def test_backward_direction():
    field = lambda t, y: np.array([1.0, 0.0])
    res = integrate(field, PhasePoint(0.5, 1.0),
                    IntegrationSettings(direction=BACKWARD),
                    events=[u_crosses_zero()])
    assert res.event.xi == pytest.approx(-0.5, abs=1e-10)
    assert res.xi[0] == 0.0 and res.xi[-1] == res.event.xi


def test_forward_backward_consistency():
    field = lambda t, y: np.array([1.0, 0.3 * y[1]])
    fwd = integrate(field, PhasePoint(0.0, 1.0), IntegrationSettings(),
                    events=[component_crosses(0, 1.0)])
    back = integrate(field, fwd.event.point,
                     IntegrationSettings(direction=BACKWARD),
                     events=[component_crosses(0, 0.0)])
    assert back.event.point.theta == pytest.approx(1.0, rel=1e-8)


def test_convergence_order():
    # fixed steps via first_step = h_max = h with loose tolerances; the
    # propagated solution should converge at 4th order or better
    field = lambda t, y: np.array([y[1], -y[0]])
    errors = []
    T = 2.0
    for h in (0.2, 0.1, 0.05):
        n = int(round(T / h))
        res = integrate(field, PhasePoint(1.0, 0.0),
                        IntegrationSettings(rel_tol=1e-2, abs_tol=1e-2,
                                            h_init=h, h_max=h, max_steps=n))
        assert res.event.kind == BUDGET
        assert res.xi[-1] == pytest.approx(T, rel=1e-12)
        exact = np.array([math.cos(T), -math.sin(T)])
        errors.append(float(np.max(np.abs(res.points[-1] - exact))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 3.5


def test_max_state_step_subdivision():
    res = integrate(lambda t, y: np.array([1.0, 0.0]), PhasePoint(0.0, 0.0),
                    IntegrationSettings(max_steps=30, h_max=50.0),
                    max_state_step=0.5)
    du = np.diff(res.points[:, 0])
    assert np.max(du) <= 0.5 * 1.001


def test_nonfinite_field_raises():
    def field(t, y):
        if y[0] > 2.0:
            return np.array([np.nan, 0.0])
        return np.array([1.0, 0.0])

    with pytest.raises(NonFinite):
        integrate(field, PhasePoint(1.0, 0.0), IntegrationSettings(max_steps=5000))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("bad_call", [1, 2, 4])
def test_nonfinite_value_at_one_call_raises(bad_call, bad):
    # call 1 is the start value, call 2 the initial-step probe and call 4 the
    # second stage of the first step; the field is finite at every other call,
    # and the run stops within its first step (start, probe and 6 stages)
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1.0, bad if len(calls) == bad_call else 0.5])

    with pytest.raises(NonFinite):
        integrate(field, PhasePoint(0.0, 1.0), IntegrationSettings(max_steps=5))
    assert len(calls) <= 8


@pytest.mark.parametrize("direction", [1, 2, -2])
def test_event_direction_must_be_falling_or_either(direction):
    with pytest.raises(ValueError, match="direction"):
        EventSpec("kind", lambda t, y: y[0], direction)


def test_step_underflow_on_singular_field():
    # integrable singularity at xi = 1 starves the controller
    field = lambda t, y: np.array([1.0 / (1.0 - t), 0.0])
    with pytest.raises(StepUnderflow):
        integrate(field, PhasePoint(0.0, 1.0), IntegrationSettings(max_steps=100_000))


def test_immediate_trigger_when_already_inside():
    res = integrate(lambda t, y: np.array([-1.0, 0.0]), PhasePoint(-0.1, 1.0),
                    IntegrationSettings(), events=[u_crosses_zero()])
    assert res.event.xi == 0.0
    assert res.n_steps == 0


def test_trajectory_order_and_event_typing():
    res = integrate(lambda t, y: np.array([1.0, 0.0]), PhasePoint(0.0, 0.0),
                    IntegrationSettings(max_steps=10))
    assert isinstance(res.event, Event)
    assert np.all(np.diff(res.xi) > 0.0)
