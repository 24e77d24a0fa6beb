"""The package's own stepper, monotone interpolant and quadrature table
against scipy, which they replace at runtime: every value must agree bit
for bit, because traced curves, profiles and verdicts are pinned to them."""

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_legendre

from inflow_layer import (IntegrationSettings, build_system, eigen_2x2,
                          integrate, phase_field)
from inflow_layer.integrator import BACKWARD, BUDGET, FORWARD
from inflow_layer.linearize import _GL_NODES, _GL_WEIGHTS
from inflow_layer.tracer import Pchip


def _counted(field):
    calls = [0]

    def fun(t, y):
        calls[0] += 1
        return field(t, y)

    return fun, calls


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_against_rk45(field, y0, settings: IntegrationSettings, n_steps: int):
    """Run ``integrate`` and scipy's RK45 for the same steps; compare all."""
    fun, calls = _counted(field)
    res = integrate(fun, y0, settings)
    assert res.event.kind == BUDGET and res.n_steps == n_steps

    ref_fun, _ = _counted(field)
    sign = 1.0 if settings.direction == FORWARD else -1.0
    solver = RK45(ref_fun, 0.0, np.array(y0, dtype=float), t_bound=sign * 1e300,
                  max_step=settings.h_max, rtol=settings.rel_tol,
                  atol=settings.abs_tol, first_step=settings.h_init)
    ts, ys, dense = [0.0], [np.array(y0, dtype=float)], []
    for _ in range(n_steps):
        assert solver.step() is None
        ts.append(solver.t)
        ys.append(solver.y)
        dense.append(solver.dense_output())

    assert _same(res.xi, ts)
    assert _same(res.points, np.vstack(ys))
    assert calls[0] == solver.nfev
    steps = res.steps
    for i, ref in enumerate(dense):
        t_lo, t_hi = steps.t[i], steps.t[i + 1]
        assert (t_lo, t_hi) == (ref.t_old, ref.t)
        for frac in (0.0, 0.125, 0.5, 0.9, 1.0):
            t = t_lo + frac * (t_hi - t_lo)
            assert _same(steps.values(i, [t])[0], ref(t))
    return solver


def test_stepper_matches_rk45_on_phase_field(gas, right_subsonic):
    # the canonical gamma1 trace: backward from the stable-direction seed at
    # the trace tolerances, with the initial step chosen by the stepper
    s = build_system(gas, right_subsonic)
    eig = eigen_2x2(s.matrix)
    seed = np.array([s.u_plus, s.theta_plus]) - 1e-6 * s.scale * eig.e2
    settings = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12, max_steps=100,
                                   direction=BACKWARD)
    _check_against_rk45(phase_field(s), seed, settings, 100)


def test_stepper_matches_rk45_with_step_bounds():
    field = lambda t, y: np.array([y[1], -y[0]])
    settings = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12, h_init=0.01,
                                   h_max=0.05, max_steps=60)
    _check_against_rk45(field, [1.0, 0.0], settings, 60)


def test_stepper_matches_rk45_through_rejected_steps():
    # an initial step far too large for the tolerance is rejected and shrunk,
    # and later steps are rejected too; after five of those rejections the
    # accepted step may not grow the next one (the factor is capped at 1)
    field = lambda t, y: np.array([y[1], -25.0 * y[0] - 0.5 * y[1]])
    settings = IntegrationSettings(rel_tol=1e-6, abs_tol=1e-12, h_init=2.0,
                                   h_max=10.0, max_steps=40)
    solver = _check_against_rk45(field, [1.0, 0.0], settings, 40)
    assert solver.nfev > 6 * 40  # at least one step was rejected


KNOTS = {
    "two points": ([0.0, 1.0], [2.0, -1.0]),
    "three points": ([0.0, 0.3, 1.0], [0.0, 1.0, 1.5]),
    "flat segment": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, 3.0]),
    "slope sign change": ([0.0, 0.5, 1.5, 2.0, 3.5], [0.0, 2.0, 1.0, 1.5, 0.5]),
    # end slope estimate opposes the first secant: clipped to 0
    "end slope clipped": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 7.0, 8.0]),
    # secants change sign and the estimate overshoots: limited to 3 m0
    "end slope limited": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -9.0, -8.0]),
}


@pytest.mark.parametrize("name", list(KNOTS))
def test_pchip_matches_scipy(name):
    x, y = (np.array(v) for v in KNOTS[name])
    mine = Pchip(x, y)
    ref = PchipInterpolator(x, y, extrapolate=False)
    mids = 0.5 * (x[1:] + x[:-1])
    rand = np.random.default_rng(7).uniform(x[0], x[-1], 200)
    for q in np.concatenate([x, mids, rand, [np.nextafter(x[-1], -np.inf)]]):
        assert _same(mine(float(q)), ref(q)), q
    for q in (x[0] - 1e-9, x[-1] + 1e-9, np.nan):
        assert np.isnan(mine(q)) and np.isnan(ref(q))


def test_pchip_end_slope_branches():
    # the two end-slope limiters of the data sets above really fire; both
    # first secants are 1
    assert Pchip(*KNOTS["end slope clipped"]).c[2, 0] == 0.0
    assert Pchip(*KNOTS["end slope limited"]).c[2, 0] == 3.0


def test_pchip_matches_scipy_on_traced_curve(subsonic_curves):
    for curve in subsonic_curves.values():
        x, y = curve.params[::-1], curve.values[::-1]
        mine = curve.interpolant
        ref = PchipInterpolator(x, y, extrapolate=False)
        qs = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                             np.random.default_rng(3).uniform(x[0], x[-1], 500)])
        assert _same([mine(float(q)) for q in qs], ref(qs))


def test_gauss_legendre_table_matches_scipy():
    nodes, weights = roots_legendre(20)
    assert _same(_GL_NODES, nodes)
    assert _same(_GL_WEIGHTS, weights)
