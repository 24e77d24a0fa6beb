import math
import warnings
from bisect import bisect_left
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from inflow_layer import (Event, EventSpec, ExistenceEngine, IntegrationSettings,
                          NonFinite, PhasePoint, StepUnderflow, TraceOptions, build_system,
                          component_crosses, eigen_2x2, integrate, left_region,
                          near_equilibrium, phase_field, theta_crosses_zero,
                          transonic_frame, u_crosses_zero)
from inflow_layer import integrator
from inflow_layer.integrator import (BACKWARD, BUDGET, COMPONENT_CROSSES, FORWARD,
                                     MAX_INSERTED, NEAR_EQUILIBRIUM, U_CROSSES_ZERO, Run, Steps,
                                     _rms)
from inflow_layer.tracer import CAPTURE_RADIUS, _reach

from conftest import load_bench


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
@pytest.mark.parametrize("bad_call", [1, 2, 3, 4, 5, 6, 7, 8])
def test_nonfinite_value_at_one_call_raises(bad_call, bad):
    # call 1 is the start value, call 2 the initial-step probe and calls 3 to
    # 8 the stages after the first of the first step, call 8 being the field
    # at its end; the field is finite at every other call, and the run stops
    # within its first step.  The stages are checked only when the error norm
    # is not finite, so every one of them must make it so; call 3's stage has
    # zero weight in both the solution and the error estimate, and reaches
    # the norm only through np.dot's inf * 0 = NaN.  The arithmetic on the
    # infinite stage is quiet: the typed error is the only report.
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1.0, bad if len(calls) == bad_call else 0.5])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            integrate(field, PhasePoint(0.0, 1.0), IntegrationSettings(max_steps=5))
    assert len(calls) <= 8


def test_overflowing_error_norm_of_a_finite_field_rejects_the_step():
    # the field is finite everywhere, but its value at the end of the first
    # attempted step, which weighs in the error estimate only, makes the
    # estimate's sum of squares overflow: the step is rejected and shrunk by
    # the largest factor, not reported as a non-finite field
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1e290 if t >= 0.95 else 1.0, 0.5])

    # the estimate's first component, (1/40) 1e290 h over the scale
    # atol + 1.1 rtol, is about 2e298, and its square is infinite
    with np.errstate(over="ignore"):
        assert np.isinf(np.float64(1e290 / 40 / (1e-12 + 1.1e-10)) ** 2)
    res = integrate(field, PhasePoint(0.0, 1.0), IntegrationSettings(h_init=1.0, max_steps=1))
    assert res.event.kind == BUDGET and res.n_steps == 1
    # start, the rejected attempt ending at 1.0, the accepted one at 0.2
    assert len(calls) == 13 and calls[6] == 1.0 and calls[12] == 0.2
    assert res.xi.tolist() == [0.0, 0.2]
    np.testing.assert_allclose(res.points, [[0.0, 1.0], [0.2, 1.1]], rtol=1e-15)


@pytest.mark.parametrize("start", [(1e60, 1.0), (1.0, 1e200), (1e104, 1.0), (1e160, 1e160)])
def test_a_field_that_overflows_at_the_start_raises_nonfinite(gas, right_subsonic, start):
    # at the first two starts the field is finite, but its norm scaled by
    # atol + |y| rtol overflows, and the initial-step rule's trial step
    # would be 0; at the last two, (u - u+) ** 3 is too large for a float,
    # which Python's pow reports as an OverflowError
    field = phase_field(build_system(gas, right_subsonic))
    with pytest.raises(NonFinite):
        integrate(field, np.array(start))


@pytest.mark.parametrize("start", [(1e60, 1.0), (1.0, 1e200), (1e104, 1.0), (1e160, 1e160)])
def test_an_overflowing_start_raises_nonfinite_and_warns_nothing(gas, right_subsonic, start):
    # the initial-step rule's norms overflow quietly, so the typed error is
    # the only report, under numpy's default error state
    field = phase_field(build_system(gas, right_subsonic))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            integrate(field, np.array(start))


def test_a_step_ending_at_a_non_finite_point_raises_nonfinite():
    # the field is finite everywhere, but once u > 1.5 it is so large that
    # the step ends at infinity; that end scales its own error to 0, so the
    # step would be accepted, and the run must stop there rather than step
    # on through NaN states
    calls = []

    def field(t, y):
        calls.append(t)
        return [1e308, 1e308] if y[0] > 1.5 else [1.0, 0.0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="ends at"):
            integrate(field, PhasePoint(1, 1), IntegrationSettings(max_steps=100))
    assert len(calls) < 100


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


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_earlier_of_two_crossings_on_one_step_stops_the_run(direction):
    # u runs down at unit speed from 1 whichever way xi goes; the steps
    # grow tenfold, so one step crosses both levels
    sign = 1.0 if direction == FORWARD else -1.0
    field = lambda t, y: np.array([-sign, 0.0])
    start, settings = PhasePoint(1.0, 1.0), IntegrationSettings(direction=direction)
    later, earlier = component_crosses(0, 0.5 - 1e-9), component_crosses(0, 0.5)
    alone = [integrate(field, start, settings, [ev]) for ev in (later, earlier)]
    assert alone[0].n_steps == alone[1].n_steps
    assert abs(alone[0].event.xi) > abs(alone[1].event.xi)
    assert _run_bits(integrate(field, start, settings, [later, earlier])) == _run_bits(alone[1])


def test_first_listed_of_two_events_with_one_function_stops_the_run():
    field = lambda t, y: np.array([-1.0, 0.0])
    one, two = (EventSpec(kind, lambda t, y: y[0] - 0.5) for kind in ("one", "two"))
    for events in ([one, two], [two, one]):
        res = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(), events)
        alone = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(), events[:1])
        assert res.event.kind == events[0].kind
        assert _run_bits(res) == _run_bits(alone)


def test_first_listed_of_two_events_triggered_at_the_start_stops_the_run():
    field = lambda t, y: np.array([-1.0, 0.0])
    for events in ([u_crosses_zero(), theta_crosses_zero()],
                   [theta_crosses_zero(), u_crosses_zero()],
                   [component_crosses(1, -0.2), u_crosses_zero()]):
        res = integrate(field, PhasePoint(-0.1, -0.2), IntegrationSettings(), events)
        assert res.event.kind == events[0].kind
        assert res.n_steps == 0 and res.event.xi == 0.0
        assert res.xi.tolist() == [0.0] and res.points.tolist() == [[-0.1, -0.2]]


def test_event_xi_is_a_python_float_however_the_run_stops():
    field = lambda t, y: np.array([-1.0, 0.0])
    start = PhasePoint(1.0, 1.0)
    cases = (([u_crosses_zero()], IntegrationSettings(), U_CROSSES_ZERO),
             ([component_crosses(0, 1.0)], IntegrationSettings(), COMPONENT_CROSSES),
             ([], IntegrationSettings(max_steps=5), BUDGET))
    for events, settings, kind in cases:
        run = Run(field, start, settings)
        for res in (integrate(field, start, settings, events),
                    run.stopped_by(events, run.step_until(events))):
            assert res.event.kind == kind
            assert type(res.event.xi) is float


def test_trajectory_order_and_event_typing():
    res = integrate(lambda t, y: np.array([1.0, 0.0]), PhasePoint(0.0, 0.0),
                    IntegrationSettings(max_steps=10))
    assert isinstance(res.event, Event)
    assert np.all(np.diff(res.xi) > 0.0)


def test_field_and_events_get_two_python_floats_at_each_step_end():
    # the stepper state is Python floats: the field at every stage and the
    # event functions at every step end (and bisection midpoint) get a
    # list of two of them, and xi as a Python float
    fields, events = [], []

    def field(t, y):
        fields.append((t, y))
        return (-1.0, 0.5 * y[1])

    def fn(t, y):
        events.append((t, y))
        return y[0] - 0.3

    res = integrate(field, PhasePoint(1.0, 1.0), IntegrationSettings(h_init=2.0),
                    [EventSpec("at_0.3", fn)])
    assert res.n_steps > 1 and len(fields) > 1 + 6 * res.n_steps   # a step was rejected
    for t, y in fields + events:
        assert type(t) is float and type(y) is list and [type(v) for v in y] == [float, float]
    seen = {(t, tuple(y)) for t, y in events}
    for t, y in zip(res.steps.t.tolist(), res.steps.y.tolist()):
        assert (t, tuple(y)) in seen


def test_a_field_may_return_two_floats_or_a_float64_array(gas, right_subsonic):
    # what the field returns goes straight into a stage row, so a tuple of
    # floats and a float64 array of the same values step to the same bits
    s = build_system(gas, right_subsonic)
    field = phase_field(s)
    seed = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    for settings in (TraceOptions().integration_settings(),
                     IntegrationSettings(h_init=1.0, direction=BACKWARD)):
        as_floats = integrate(field, seed, settings, [u_crosses_zero()])
        as_array = integrate(lambda t, y: np.array(field(t, y)), seed, settings,
                             [u_crosses_zero()])
        assert as_floats.n_steps > 100
        assert _run_bits(as_floats) == _run_bits(as_array)


def test_norms_are_their_linalg_norm_forms():
    rng = np.random.default_rng(11)
    vecs = [rng.normal(size=n) * 10.0 ** rng.uniform(-200.0, 200.0)
            for n in (2, 7) for _ in range(1000)]
    vecs += [np.array(v) for v in ((np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0),
                                   (np.inf, np.nan), (0.0, -0.0), (1e200, 1e200),
                                   (5e-324, 0.0))]
    target, radius = np.array([0.3, 0.7]), 1e-8
    capture = near_equilibrium(target, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in vecs:
            assert float(_rms(x)).hex() == float(np.linalg.norm(x) / x.size ** 0.5).hex()
            if x.size == 2:
                want = float(np.linalg.norm(x - target)) - radius
                assert float(capture.fn(0.0, x)).hex() == want.hex()


@pytest.fixture(scope="module")
def real_runs(gas, right_subsonic, right_transonic):
    """Runs on the canonical phase fields: backward along gamma1, gamma2 and
    sigma as the tracer integrates them, gamma1 sub-sampled finely enough
    that single steps carry hundreds of sub-samples, and forward runs back
    towards S1 from points on gamma1 and sigma."""
    opts = TraceOptions()
    back, fwd = opts.integration_settings(), IntegrationSettings(max_steps=2000)
    s = build_system(gas, right_subsonic)
    e2 = eigen_2x2(s.matrix).e2
    s1 = np.array([s.u_plus, s.theta_plus])
    cap = opts.sample_cap * s.scale
    field = phase_field(s)
    to_s2 = [theta_crosses_zero(), near_equilibrium(s.s2, CAPTURE_RADIUS * s.scale)]
    toward_s1 = [component_crosses(0, 0.99 * s.u_plus)]
    runs = {
        "gamma1": integrate(field, s1 - 1e-3 * s.scale * e2, back, [u_crosses_zero()],
                            cap / 40),
        "gamma2": integrate(field, s1 + 1e-3 * s.scale * e2, back, to_s2, cap),
        "gamma1_forward": integrate(field, s1 - 0.3 * s.scale * e2, fwd, toward_s1, cap),
    }
    st = build_system(gas, right_transonic)
    sigma = integrate(phase_field(st), transonic_frame(st).points(-1e-3 * st.scale), back,
                      [u_crosses_zero()], cap)
    runs["sigma"] = sigma
    runs["sigma_forward"] = integrate(phase_field(st), sigma.points[len(sigma.points) // 2],
                                      fwd, [component_crosses(0, 0.999 * st.u_plus)], cap)
    return runs


def _one_step(t_old, t_new, y_old, K) -> Steps:
    """A record of one step from (t_old, y_old) to t_new with the stages K,
    stored as ``Run.step`` stores it; its end point is not read."""
    return Steps(np.array([t_old, t_new]), np.array([y_old, y_old]),
                 np.array([t_new - t_old]), K.T.dot(integrator._P)[None])


def _one_point_value(steps: Steps, i: int, t) -> np.ndarray:
    """Step i's interpolant at one t, evaluated as scipy's ``RkDenseOutput``
    evaluates it: powers by cumprod of a tiled x, one np.dot."""
    x = (t - steps.t[i]) / steps.h[i]
    p = np.cumprod(np.tile(x, steps.Q.shape[2]))
    y = steps.h[i] * np.dot(steps.Q[i], p)
    y += steps.y[i]
    return y


def test_batched_samples_are_each_steps_values(real_runs):
    # the sub-samples are evaluated after the step loop, all in one stacked
    # call; each row is still its step's interpolant evaluated alone
    for name, res in real_runs.items():
        assert res.n_steps > 50, name
        sign = 1.0 if res.xi[-1] > 0.0 else -1.0
        t_old = res.steps.t[:-1]
        step = np.searchsorted(sign * t_old, sign * res.xi, side="right") - 1
        inner = np.flatnonzero(~np.isin(res.xi, np.append(t_old, res.event.xi)))
        assert inner.size > 0, name
        for i in inner:
            want = _one_point_value(res.steps, step[i], res.xi[i]).tobytes()
            assert res.points[i].tobytes() == want, (name, i)
    # on a real step the last bits of the power terms mostly vanish into
    # y_old; a unit step from the origin with random stages keeps them
    steps = _one_step(0.0, 1.0, np.zeros(2), np.random.default_rng(3).normal(size=(7, 2)))
    t = np.random.default_rng(4).uniform(0.0, 1.0, 2000)
    for ti, row in zip(t, steps.dense(t, np.zeros(t.size, dtype=int))):
        want = _one_point_value(steps, 0, ti).tobytes()
        assert row.tobytes() == want and steps.values(0, [ti])[0].tobytes() == want, ti


def test_a_step_gets_at_most_max_inserted_sub_samples(gas, right_subsonic):
    # at this cap all but the first of the 12 steps ask for more than the
    # limit; each gets exactly MAX_INSERTED, at np.linspace's points
    s = build_system(gas, right_subsonic)
    start = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    settings = IntegrationSettings(direction=BACKWARD, max_steps=12)
    ends = integrate(phase_field(s), start, settings, [u_crosses_zero()])
    res = integrate(phase_field(s), start, settings, [u_crosses_zero()], 1e-8)
    wanted = (np.max(np.abs(np.diff(ends.points, axis=0)), axis=1) / 1e-8).astype(int)
    assert wanted[0] < MAX_INSERTED < wanted[1:].min()
    i, steps = 0, res.steps
    for j, n in enumerate(np.minimum(wanted, MAX_INSERTED)):
        knots = np.linspace(steps.t[j], steps.t[j + 1], n + 2)
        assert np.array_equal(res.xi[i:i + n + 2], knots)
        for ti, row in zip(knots[1:-1], res.points[i + 1:i + n + 1]):
            assert row.tobytes() == steps.values(j, [ti])[0].tobytes()
        i += n + 1
    assert i == len(res.xi) - 1 and np.array_equal(res.points[-1], ends.points[-1])


def test_max_state_step_validation():
    field = lambda t, y: np.array([1.0, 0.0])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="max_state_step"):
            integrate(field, PhasePoint(0.0, 0.0), IntegrationSettings(max_steps=3),
                      max_state_step=bad)
    # so is a start that is not a point of the plane
    for start in ((0.0,), (0.0, 0.0, 0.0), [[0.0, 0.0]]):
        with pytest.raises(ValueError, match="plane"):
            integrate(field, start, IntegrationSettings(max_steps=3))


def test_emitted_points_are_step_ends_and_their_sub_samples(real_runs):
    for name, res in real_runs.items():
        sign = 1.0 if res.xi[-1] > 0.0 else -1.0
        steps = res.steps
        ends = list(steps.t[1:-1]) + [res.event.xi]
        stops = np.searchsorted(sign * res.xi, sign * np.array(ends))
        assert stops[-1] == len(res.xi) - 1 and np.all(sign * np.diff(res.xi) > 0.0)
        start, most = 0, 0
        for k, stop in enumerate(stops):
            assert res.xi[start] == steps.t[k]
            assert res.points[start].tobytes() == steps.y[k].tobytes()
            for i in range(start + 1, stop):
                assert res.points[i].tobytes() == steps.values(k, [res.xi[i]])[0].tobytes(), \
                    (name, k, i)
            most = max(most, stop - start - 1)
            start = stop
        assert most >= (300 if name == "gamma1" else 1), name


def _run_bits(res) -> tuple:
    """Every bit of an IntegrationResult that ``integrate`` promises: xi,
    points, the event, the step count, and each step's bounds and dense
    values at fractions 0, 0.5 and 1."""
    ev, steps = res.event, res.steps
    bounds = list(zip(steps.t[:-1], steps.t[1:]))
    dense = [steps.values(i, [t0 + frac * (t1 - t0)])[0].tobytes()
             for i, (t0, t1) in enumerate(bounds) for frac in (0.0, 0.5, 1.0)]
    return (res.xi.tobytes(), res.points.tobytes(), ev.kind, type(ev.xi),
            float(ev.xi).hex(), float(ev.point.u).hex(), float(ev.point.theta).hex(),
            res.n_steps, [(float(t0).hex(), float(t1).hex()) for t0, t1 in bounds], dense)


def test_run_prefixes_equal_separate_integrate_calls(gas, right_subsonic):
    # one backward run along gamma1, stepped on only as far as each boundary
    # needs, stops at each as a separate integrate call does
    s = build_system(gas, right_subsonic)
    start = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    settings = IntegrationSettings(rel_tol=1e-13, abs_tol=1e-15, direction=BACKWARD)
    run = Run(phase_field(s), start, settings)
    bounds = [f * s.u_plus for f in (0.9, 0.7, 0.5, 0.3, 0.1)]   # each one farther on
    want = {b: integrate(phase_field(s), start, settings, [component_crosses(0, b)])
            for b in bounds}
    for b in bounds:
        evs = [component_crosses(0, b)]
        reach = _reach(run.steps(run.n_steps).y, 0)
        assert bisect_left(reach, -b) == len(reach)
        k = run.step_until(evs)
        # the run stores the steps up to the farthest boundary and no more
        assert k == run.n_steps == want[b].n_steps
        assert want[b].event.kind == COMPONENT_CROSSES
        assert _run_bits(run.stopped_by(evs, k)) == _run_bits(want[b])
    assert run.n_steps > integrator._FIRST_STEPS   # the record grew past its first size
    # every boundary is now a bisection of the stored steps' reach
    reach = _reach(run.steps(run.n_steps).y, 0)
    for b in reversed(bounds):
        evs = [component_crosses(0, b)]
        assert _run_bits(run.stopped_by(evs, bisect_left(reach, -b))) == _run_bits(want[b])
    # a boundary at the start triggers there, before any step
    evs = [component_crosses(0, float(start[0]))]
    assert bisect_left(reach, -float(start[0])) == 0
    assert _run_bits(run.stopped_by(evs, 0)) == _run_bits(
        integrate(phase_field(s), start, settings, evs))


def test_run_record_grows_and_keeps_its_views(gas, right_subsonic):
    # stepped in pieces past three doublings of its record, the run hands
    # out read-only views that keep their bytes, and a masked evaluation on
    # one is each step's own values
    s = build_system(gas, right_subsonic)
    start = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    run = Run(phase_field(s), start,
              IntegrationSettings(rel_tol=1e-13, abs_tol=1e-15, direction=BACKWARD))
    first, held = integrator._FIRST_STEPS, []
    for n in (first // 2, first, first + 1, 2 * first + 1, 3 * first, 4 * first + 1):
        while run.n_steps < n:
            run.step()
        steps = run.steps(n)
        assert (len(steps.t), len(steps.y), len(steps.h), len(steps.Q)) == (n + 1, n + 1, n, n)
        assert not any(a.flags.writeable for a in steps)
        held.append((steps, [a.tobytes() for a in steps]))
        mask = np.arange(n) % 3 != 1
        which = np.flatnonzero(mask)
        t = (steps.t[:-1] + 0.3 * steps.h)[mask]
        y, dy = steps.dense(t, mask, slopes=True)
        assert y.tobytes() == steps.dense(t, which).tobytes()
        for row, slope, i, ti in zip(y, dy, which, t):
            assert row.tobytes() == steps.values(i, [ti])[0].tobytes(), (n, i)
            x = (ti - steps.t[i]) / steps.h[i]
            k = np.arange(steps.Q.shape[2])
            assert slope.tobytes() == (steps.Q[i] @ ((k + 1) * x ** k)).tobytes(), (n, i)
    assert len(run.steps(0).h) == 0 and run._record.h.size == 8 * first
    # every view kept its bytes, which are still the run's first steps
    for steps, want in held:
        assert [a.tobytes() for a in steps] == want
        now = run.steps(len(steps.h))
        assert [a.tobytes() for a in now] == want


def test_run_budget_equals_integrate_budget(gas, right_subsonic):
    s = build_system(gas, right_subsonic)
    start = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    settings = IntegrationSettings(direction=BACKWARD, max_steps=30)
    evs = [component_crosses(0, 0.1 * s.u_plus)]
    run = Run(phase_field(s), start, settings)
    assert run.step_until(evs) is None and run.n_steps == 30
    want = integrate(phase_field(s), start, settings, evs)
    assert want.event.kind == BUDGET
    assert _run_bits(run.stopped_by(evs, None)) == _run_bits(want)


def test_reach_finds_the_first_falling_crossing_as_step_until_does():
    # on a circle each coordinate turns back at -1 and +1, and the run goes
    # round several times; for a level q below the start's coordinate the
    # first step end at or below q, bisected on the stored steps' reach, is
    # the step a fresh run stops on, also where the coordinate rises first
    # or q is a stored step end's own value
    field = lambda t, y: np.array([-y[1], y[0]])
    start, settings = PhasePoint(1.0, 0.0), IntegrationSettings(max_steps=800)
    run = Run(field, start, settings)
    assert run.step_until([component_crosses(0, 2.0)]) is None
    assert run.t > 3 * 2 * math.pi
    y = run.steps(run.n_steps).y
    lowest_theta = int(np.argmin(y[:, 1]))
    for pidx, q in ((0, 0.5), (0, -0.5), (0, float(y[3, 0])), (0, float(y[:, 0].min())),
                    (1, -0.5), (1, float(y[lowest_theta, 1]))):
        k = bisect_left(_reach(y, pidx), -q)
        ev = component_crosses(pidx, q)
        fresh = Run(field, start, settings)
        assert fresh.step_until([ev]) == k, (pidx, q)
        want = integrate(field, start, settings, [ev])
        assert want.event.kind == COMPONENT_CROSSES and want.n_steps == k
        assert _run_bits(run.stopped_by([ev], k)) == _run_bits(want), (pidx, q)
    assert bisect_left(_reach(y, 1), -float(y[lowest_theta, 1])) == lowest_theta


def test_run_stops_on_the_first_of_several_events_as_integrate_does():
    # several events, each list stepped on a fresh run of a circle
    field = lambda t, y: np.array([-y[1], y[0]])
    start, settings = PhasePoint(1.0, 0.0), IntegrationSettings(max_steps=800)
    rising, falling = component_crosses(1, 0.5), component_crosses(0, -0.5)
    hair = component_crosses(1, 0.5 + 1e-9)
    at_start = EventSpec("at_start", lambda t, y: y[0] - 1.0)
    for events in ([rising, falling], [falling, rising], [hair, rising], [rising, hair],
                   [falling, at_start], [component_crosses(0, 1.0), at_start],
                   [at_start, component_crosses(0, 1.0)]):
        want = integrate(field, start, settings, events)
        fresh = Run(field, start, settings)
        k = fresh.step_until(events)
        assert k == fresh.n_steps == want.n_steps
        assert _run_bits(fresh.stopped_by(events, k)) == _run_bits(want)


def _one_point_bisect(ev: EventSpec, values, t_lo, t_hi, g_lo):
    """The bisection as one dense-output call per halving."""
    a, b = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if abs(b - a) <= 1e-12 * (1.0 + abs(mid)):
            break
        if integrator._crossed(g_lo, ev.fn(mid, values([mid])[0]), ev.direction):
            b = mid
        else:
            a = mid
    return b


def _float_quartic(steps: Steps, i: int, t: float) -> np.ndarray:
    """Step i's interpolant at t by Horner's rule in Python floats."""
    t0, h = float(steps.t[i]), float(steps.h[i])
    x = (t - t0) / h
    return np.array([y0 + h * (x * (c1 + x * (c2 + x * (c3 + x * c4))))
                     for y0, (c1, c2, c3, c4) in zip(steps.y[i].tolist(),
                                                     steps.Q[i].tolist())])


def test_bisection_equals_the_one_point_loop_on_real_steps(
        monkeypatch, gas, right_subsonic, right_subcase_b, right_transonic):
    # every stop of three fresh traces, two integrations and a query-mix
    # round: each location is the numpy one-point loop's, bit for bit, and
    # each stop point is the dense output there
    calls, stops = [], []
    bisect, stopped_by = integrator._bisect_event, Run.stopped_by

    def recorded(*args):
        calls.append((args, bisect(*args)))
        return calls[-1][1]

    def recorded_stop(run, events, k):
        res = stopped_by(run, events, k)
        stops.append((k, res.event.xi, res.points[-1].copy(), res.steps))
        return res

    monkeypatch.setattr(integrator, "_bisect_event", recorded)
    monkeypatch.setattr(Run, "stopped_by", recorded_stop)
    engine = ExistenceEngine()
    for right in (right_subsonic, right_subcase_b, right_transonic):
        engine.curves_for(gas, right)
    s = build_system(gas, right_subsonic)
    e2 = eigen_2x2(s.matrix).e2
    s1 = np.array([s.u_plus, s.theta_plus])
    back = TraceOptions().integration_settings()
    integrate(phase_field(s), s1 + 1e-3 * s.scale * e2, back,
              [near_equilibrium(s.s2, CAPTURE_RADIUS * s.scale)])
    integrate(phase_field(s), s1 - 0.3 * s.scale * e2, IntegrationSettings(),
              [component_crosses(0, 0.99 * s.u_plus)])
    workloads = load_bench("workloads.py", "bench_workloads")
    for seed in (0, 1):
        mix = workloads.QueryMix(seed)
        mix.setup()
        tally = workloads.Tally()
        mix.run_round(tally)
        assert not tally.failures
    kinds = {args[0].kind for args, _ in calls}
    assert {NEAR_EQUILIBRIUM, COMPONENT_CROSSES, U_CROSSES_ZERO} <= kinds
    assert any(args[0].direction == 0 for args, _ in calls)
    assert len(calls) > 60
    for (ev, steps, i, lo, hi, g_lo), got in calls:
        want = _one_point_bisect(ev, partial(steps.values, i), lo, hi, g_lo)
        assert type(got) is float and got.hex() == float(want).hex(), ev.kind
    located = {got for _, got in calls}
    stopped = [(k, xi, point, steps) for k, xi, point, steps in stops if k]
    assert len(stopped) > 30
    for k, xi, point, steps in stopped:
        assert xi in located
        assert point.tobytes() == steps.values(k - 1, [xi])[0].tobytes()


def test_bisection_stops_at_the_halving_cap(monkeypatch):
    # every midpoint is on the triggered side and the bracket never gets
    # narrow enough, so both loops stop after exactly 200 decided midpoints
    decided = []
    crossed = integrator._crossed
    monkeypatch.setattr(integrator, "_crossed",
                        lambda g_old, g_new, direction:
                        decided.append(g_new) or crossed(g_old, g_new, direction))
    steps = _one_step(0.0, 1e300, np.zeros(2), np.ones((7, 2)))
    ev = EventSpec("always", lambda t, y: -1.0)
    got = []
    for bisect in (partial(integrator._bisect_event, ev, steps, 0),
                   partial(_one_point_bisect, ev, partial(steps.values, 0))):
        decided.clear()
        got.append(bisect(0.0, 1e300, 1.0))
        assert len(decided) == 200 and got[-1] == 1e300 / 2 ** 200
    assert type(got[0]) is float


@st.composite
def _crossing_steps(draw):
    """A one-step record whose u component crosses ``level`` at 1, 2 or 3
    points inside the step, starting above it, and a random theta
    component: u = level + a (x - r1) .. (x - r4) at x = (t - t_old) / h.
    Also the roots in xi inside the step and those outside it."""
    t_old = draw(st.floats(-5.0, 5.0))
    h = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 1.0))
    inside = draw(st.integers(1, 3))
    inner = draw(st.lists(st.floats(0.02, 0.98), min_size=inside, max_size=inside))
    outer = draw(st.lists(st.floats(-3.0, -0.1) | st.floats(1.1, 3.0),
                          min_size=4 - inside, max_size=4 - inside))
    level = draw(st.floats(-2.0, 2.0))
    theta = draw(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
    coef = np.poly(inner + outer)[::-1]      # of x^0 .. x^4
    a = math.copysign(draw(st.floats(0.1, 10.0)), coef[0])
    y_old = np.array([level + a * coef[0], theta[0]])
    Q = np.array([a * coef[1:] / h, theta[1:]])
    steps = Steps(np.array([t_old, t_old + h]), np.array([y_old, y_old]), np.array([h]),
                  Q[None])
    return steps, level, ([t_old + h * r for r in inner], [t_old + h * r for r in outer])


def _shifted(steps: Steps, level: float, swap: bool) -> Steps:
    """``steps`` with u moved down by ``level``, and with u and theta
    swapped if ``swap``."""
    y = steps.y - [level, 0.0]
    order = [1, 0] if swap else [0, 1]
    return steps._replace(y=y[:, order], Q=steps.Q[:, order])


def _bisected(ev: EventSpec, steps: Steps, t_lo, t_hi, g_lo):
    """``_bisect_event`` on step 0, with the (t, y, g) of each midpoint its
    event function was called at."""
    seen = []

    def fn(t, y):
        seen.append((t, y.copy(), float(ev.fn(t, y))))
        return seen[-1][2]

    got = integrator._bisect_event(EventSpec(ev.kind, fn, ev.direction), steps, 0,
                                   t_lo, t_hi, g_lo)
    return got, seen


def _event_on(kind: str, steps: Steps, level: float, target) -> tuple:
    """An event of ``kind`` on a ``_crossing_steps`` record, and the record
    it reads; all but the capture cross where u crosses ``level``."""
    if kind == "capture":
        ends = steps.values(0, steps.t)
        radius = float(np.linalg.norm(ends[1] - ends[0])) / 2
        return near_equilibrium(ends[1] + np.array(target), radius), steps
    return {
        "component": (component_crosses(0, level), steps),                  # from above
        "rising": (EventSpec("rising", lambda t, y: level - y[0], direction=0), steps),
        "falling": (EventSpec("falling", lambda t, y: y[0] - level), steps),
        "u_axis": (u_crosses_zero(), _shifted(steps, level, swap=False)),
        "theta_axis": (theta_crosses_zero(), _shifted(steps, level, swap=True)),
        "region": (left_region(lambda y: y[0] > level), steps),
    }[kind]


@pytest.mark.parametrize("kind", ["component", "rising", "falling", "u_axis", "theta_axis",
                                  "region", "capture"])
@given(record=_crossing_steps(), target=st.tuples(st.floats(-1e-3, 1e-3),
                                                 st.floats(-1e-3, 1e-3)))
@settings(max_examples=40)
def test_bisection_brackets_a_crossing_of_the_quartic(kind, record, target):
    steps, level, (inner, _outer) = record
    t_lo, t_hi = (float(t) for t in steps.t)
    ev, rec = _event_on(kind, steps, level, target)
    g_lo = float(ev.fn(t_lo, rec.y[0]))

    def crossed(t):
        """Whether the event has crossed at t, on the quartic in Python floats."""
        return integrator._crossed(g_lo, float(ev.fn(t, _float_quartic(rec, 0, t))),
                                   ev.direction)

    # the loop's bounds may be Python floats or numpy scalars
    for lo, hi in ((t_lo, t_hi), (rec.t[0], rec.t[1])):
        got, seen = _bisected(ev, rec, lo, hi, g_lo)
        assert type(got) is float, type(lo)
        # each halving decided on the quartic in Python floats, the
        # crossed side kept: the result is the last crossed midpoint
        a, b = t_lo, t_hi
        for t, y, g in seen:
            assert type(y) is list and [type(v) for v in y] == [float, float]
            assert np.array(y).tobytes() == _float_quartic(rec, 0, t).tobytes()
            if integrator._crossed(g_lo, g, ev.direction):
                b = t
            else:
                a = t
        # crossed at the returned end, unless no midpoint was and it is
        # t_hi, and not at the other
        assert got == b and (crossed(got) or got == t_hi) and not crossed(a)
        assert len(seen) == 200 or abs(b - a) <= 1e-12 * (1.0 + abs(0.5 * (a + b)))
        # with one crossing inside the step, the numpy one-point loop's
        # decisions can differ only within the rounding of the quartic
        if len(inner) == 1 and kind != "capture":
            want = _one_point_bisect(ev, partial(rec.values, 0), lo, hi, g_lo)
            assert abs(got - float(want)) <= 2.0 * abs(b - a)


@pytest.mark.parametrize("seed", [0, 1])
def test_each_query_mix_stop_makes_one_values_call(seed, monkeypatch):
    # the query mix's stops: canonical gamma1 and gamma2, the alpha2 < 0
    # curves and sonic sigma, traced and then stopped on by profile legs and
    # refined memberships; the halvings read the quartic in Python floats,
    # and the stop point is one dense-output call
    workloads = load_bench("workloads.py", "bench_workloads")
    values, bisect, stopped_by = Steps.values, integrator._bisect_event, Run.stopped_by
    made, per_bisection, per_stop = [], [], []

    def counted_values(*args):
        made.append(1)
        return values(*args)

    def counted_bisect(*args):
        before = len(made)
        out = bisect(*args)
        per_bisection.append(len(made) - before)
        return out

    def counted_stop(run, events, k):
        before = len(made)
        out = stopped_by(run, events, k)
        if k:
            per_stop.append(len(made) - before)
        return out

    monkeypatch.setattr(Steps, "values", counted_values)
    monkeypatch.setattr(integrator, "_bisect_event", counted_bisect)
    monkeypatch.setattr(Run, "stopped_by", counted_stop)
    mix = workloads.QueryMix(seed)
    mix.setup()
    tally = workloads.Tally()
    mix.run_round(tally)
    assert not tally.failures
    assert len(per_stop) > 20 and set(per_stop) == {1}
    assert len(per_bisection) >= len(per_stop) and set(per_bisection) == {0}
