import math

import numpy as np
import pytest
from scipy.optimize import brentq

from inflow_layer import (Event, EventSpec, IntegrationSettings, NonFinite,
                          PhasePoint, StepUnderflow, TraceOptions, build_system,
                          component_crosses, eigen_2x2, integrate, left_region,
                          near_equilibrium, phase_field, theta_crosses_zero,
                          transonic_frame, u_crosses_zero)
from inflow_layer.integrator import (BACKWARD, BUDGET, COMPONENT_CROSSES, MAX_INSERTED,
                                     DenseStep, Run, _rms, dense_eval)
from inflow_layer.tracer import CAPTURE_RADIUS


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
    # the norm only through np.dot's inf * 0 = NaN.  Arithmetic on the
    # infinite stage may warn on the way to the raise.
    calls = []

    def field(t, y):
        calls.append(t)
        return np.array([1.0, bad if len(calls) == bad_call else 0.5])

    with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
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
        res = integrate(field, PhasePoint(0.0, 1.0),
                        IntegrationSettings(h_init=1.0, max_steps=1))
    assert res.event.kind == BUDGET and res.n_steps == 1
    # start, the rejected attempt ending at 1.0, the accepted one at 0.2
    assert len(calls) == 13 and calls[6] == 1.0 and calls[12] == 0.2
    assert res.xi.tolist() == [0.0, 0.2]
    np.testing.assert_allclose(res.points, [[0.0, 1.0], [0.2, 1.1]], rtol=1e-15)


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


def _one_point_value(seg: DenseStep, t) -> np.ndarray:
    """The interpolant at one t, evaluated as scipy's ``RkDenseOutput``
    evaluates it: powers by cumprod of a tiled x, one np.dot."""
    x = (t - seg.t_old) / seg.h
    p = np.cumprod(np.tile(x, seg.Q.shape[1]))
    y = seg.h * np.dot(seg.Q, p)
    y += seg.y_old
    return y


def test_batched_samples_are_each_steps_values(real_runs):
    # the sub-samples are evaluated after the step loop, all in one stacked
    # call; each row is still its step's interpolant evaluated alone
    for name, res in real_runs.items():
        assert res.n_steps > 50, name
        sign = 1.0 if res.xi[-1] > 0.0 else -1.0
        t_old = np.array([t0 for t0, _, _ in res.segments])
        step = np.searchsorted(sign * t_old, sign * res.xi, side="right") - 1
        inner = np.flatnonzero(~np.isin(res.xi, np.append(t_old, res.event.xi)))
        assert inner.size > 0, name
        for i in inner:
            seg = res.segments[step[i]][2]
            want = _one_point_value(seg, res.xi[i]).tobytes()
            assert res.points[i].tobytes() == want, (name, i)
    # on a real step the last bits of the power terms mostly vanish into
    # y_old; a unit step from the origin with random stages keeps them
    seg = DenseStep(0.0, 1.0, np.zeros(2), np.random.default_rng(3).normal(size=(7, 2)))
    t = np.random.default_rng(4).uniform(0.0, 1.0, 2000)
    for ti, row in zip(t, dense_eval([seg] * t.size, t)[0]):
        want = _one_point_value(seg, ti).tobytes()
        assert row.tobytes() == want and seg(ti).tobytes() == want, ti


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
    i = 0
    for (t_old, t_new, seg), n in zip(res.segments, np.minimum(wanted, MAX_INSERTED)):
        knots = np.linspace(t_old, t_new, n + 2)
        assert np.array_equal(res.xi[i:i + n + 2], knots)
        for ti, row in zip(knots[1:-1], res.points[i + 1:i + n + 1]):
            assert row.tobytes() == seg(ti).tobytes()
        i += n + 1
    assert i == len(res.xi) - 1 and np.array_equal(res.points[-1], ends.points[-1])


def test_max_state_step_validation():
    field = lambda t, y: np.array([1.0, 0.0])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="max_state_step"):
            integrate(field, PhasePoint(0.0, 0.0), IntegrationSettings(max_steps=3),
                      max_state_step=bad)


def test_emitted_points_are_step_ends_and_their_sub_samples(real_runs):
    for name, res in real_runs.items():
        sign = 1.0 if res.xi[-1] > 0.0 else -1.0
        ends = [t_new for _, t_new, _ in res.segments[:-1]] + [res.event.xi]
        stops = np.searchsorted(sign * res.xi, sign * np.array(ends))
        assert stops[-1] == len(res.xi) - 1 and np.all(sign * np.diff(res.xi) > 0.0)
        start, most = 0, 0
        for k, ((t_old, _, seg), stop) in enumerate(zip(res.segments, stops)):
            assert res.xi[start] == t_old and res.points[start].tobytes() == seg.y_old.tobytes()
            for i in range(start + 1, stop):
                assert res.points[i].tobytes() == seg(res.xi[i]).tobytes(), (name, k, i)
            most = max(most, stop - start - 1)
            start = stop
        assert most >= (300 if name == "gamma1" else 1), name


def _run_bits(res) -> tuple:
    """Every bit of an IntegrationResult that ``integrate`` promises: xi,
    points, the event, the step count, and each step's bounds and dense
    values at fractions 0, 0.5 and 1."""
    ev = res.event
    dense = [seg(t0 + frac * (t1 - t0)).tobytes()
             for t0, t1, seg in res.segments for frac in (0.0, 0.5, 1.0)]
    return (res.xi.tobytes(), res.points.tobytes(), ev.kind, type(ev.xi),
            float(ev.xi).hex(), float(ev.point.u).hex(), float(ev.point.theta).hex(),
            res.n_steps, [(float(t0).hex(), float(t1).hex()) for t0, t1, _ in res.segments],
            dense)


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
        ev = component_crosses(0, b)
        assert run.crossing(ev) is None
        k = run.step_until(ev)
        # the run stores the steps up to the farthest boundary and no more
        assert k == run.n_steps == want[b].n_steps
        assert want[b].event.kind == COMPONENT_CROSSES
        assert _run_bits(run.stopped_by(ev, k)) == _run_bits(want[b])
    assert run.n_steps > 64            # the record grew past its first size
    # every boundary short of the last is now a scan of the stored steps
    for b in reversed(bounds):
        ev = component_crosses(0, b)
        assert _run_bits(run.stopped_by(ev, run.crossing(ev))) == _run_bits(want[b])
    # a boundary at the start triggers there, before any step
    ev = component_crosses(0, float(start[0]))
    assert run.crossing(ev) == 0
    assert _run_bits(run.stopped_by(ev, 0)) == _run_bits(
        integrate(phase_field(s), start, settings, [ev]))


def test_run_budget_equals_integrate_budget(gas, right_subsonic):
    s = build_system(gas, right_subsonic)
    start = np.array([s.u_plus, s.theta_plus]) - 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    settings = IntegrationSettings(direction=BACKWARD, max_steps=30)
    ev = component_crosses(0, 0.1 * s.u_plus)
    run = Run(phase_field(s), start, settings)
    assert run.step_until(ev) is None and run.n_steps == 30
    want = integrate(phase_field(s), start, settings, [ev])
    assert want.event.kind == BUDGET
    assert _run_bits(run.stopped_by(ev, None)) == _run_bits(want)


def test_run_scan_finds_the_first_crossing_of_many():
    # on a circle every level is crossed twice a turn, once each way, and
    # the run goes round several times
    field = lambda t, y: np.array([-y[1], y[0]])
    start, settings = PhasePoint(1.0, 0.0), IntegrationSettings(max_steps=800)
    run = Run(field, start, settings)
    assert run.step_until(component_crosses(0, 2.0)) is None
    assert run.t > 3 * 2 * math.pi
    for ev in (component_crosses(1, 0.5),            # first crossed rising
               component_crosses(0, -0.5),           # first crossed falling
               EventSpec("falling", lambda t, y: 0.5 - y[1]),
               EventSpec("falling", lambda t, y: y[1] + 0.5)):
        want = integrate(field, start, settings, [ev])
        assert want.event.kind == ev.kind and want.event.xi < 2 * math.pi
        assert _run_bits(run.stopped_by(ev, run.crossing(ev))) == _run_bits(want)
