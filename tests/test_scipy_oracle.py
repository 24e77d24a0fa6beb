"""The package's own stepper and quadrature table against scipy, which they
replace at runtime: every value must agree bit for bit, because traced
curves, profiles and verdicts are pinned to them."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.integrate import RK45
from scipy.special import roots_legendre

from inflow_layer import (EndState, ExistenceEngine, GasParams, IntegrationSettings,
                          TraceOptions, build_system, eigen_2x2, integrate, phase_field,
                          transonic_frame)
from inflow_layer.cli import SWEEP_TRACE
from inflow_layer.integrator import BACKWARD, BUDGET, FORWARD, Run
from inflow_layer.linearize import _GL_NODES, _GL_WEIGHTS
from inflow_layer.tracer import _LEG_SETTINGS

# the settings of the package's backward runs: a traced curve's, a sweep
# row's gamma2 and a profile orbit's
PACKAGE_SETTINGS = {"trace": TraceOptions().integration_settings(),
                    "sweep": SWEEP_TRACE.integration_settings(),
                    "leg": _LEG_SETTINGS}
STIFF = GasParams(1.2728, 4.2983, 3.5278, 0.1)   # lambda1 / |lambda2| = 816 at M+ = 0.771


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


def _at_mach(gas: GasParams, mach: float, theta: float = 1.0) -> EndState:
    return EndState(1.0, mach * math.sqrt(gas.gamma * gas.R * theta), theta)


def _first_rejection(field, y0, settings: IntegrationSettings) -> int:
    """The index of the first step of ``Run`` whose first attempt is
    rejected, counted by its field calls (six an attempt, one more for the
    initial-step probe)."""
    calls = [0]

    def fun(t, y):
        calls[0] += 1
        return field(t, y)

    run = Run(fun, y0, settings)
    while True:
        before = calls[0]
        run.step()
        if calls[0] - before > 6 + (run.n_steps == 1 and settings.h_init is None):
            return run.n_steps


@pytest.fixture(scope="module")
def package_runs():
    """The start of every curve's backward run (its profile orbit's edge on
    the graph, where its trace leaves the graph too) on the sonic far
    field, at 1 - M+ = 1e-3 and on the stiff gas at M+ = 0.771."""
    gas = GasParams(1.4, 1.0, 1.0, 1.0)
    engine = ExistenceEngine()
    runs = {}
    for name, g, right in (("sonic", gas, _at_mach(gas, 1.0)),
                           ("near_sonic", gas, _at_mach(gas, 1.0 - 1e-3)),
                           ("stiff", STIFF, _at_mach(STIFF, 0.771))):
        field = phase_field(build_system(g, right))
        for label, curve in engine.curves_for(g, right).items():
            runs[f"{name}_{label}"] = (field, curve.orbit.edge)
    return runs


@pytest.mark.parametrize("setting", sorted(PACKAGE_SETTINGS))
def test_stepper_matches_rk45_on_the_package_runs(package_runs, setting):
    # each curve's run under each of the package's settings, out to ten
    # steps past its first rejected step
    assert sorted(package_runs) == ["near_sonic_gamma1", "near_sonic_gamma2", "sonic_sigma",
                                    "stiff_gamma1", "stiff_gamma2"]
    for field, y0 in package_runs.values():
        settings = PACKAGE_SETTINGS[setting]
        n = _first_rejection(field, y0, settings) + 10
        solver = _check_against_rk45(field, y0, dataclasses.replace(settings, max_steps=n), n)
        assert solver.nfev > 6 * n + 2


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _random_runs(draw):
    """(field, start, settings) of a run with one of the package's settings
    on a random gas and far field, started 1e-3 scale from S1: on either
    side along the stable eigenvector of a subsonic S1, on sigma's graph
    at a sonic one."""
    gas = GasParams(draw(st.floats(1.05, 1.9)), draw(_log_uniform(0.2, 5.0)),
                    draw(_log_uniform(0.2, 5.0)), draw(_log_uniform(0.05, 20.0)))
    mach = draw(st.one_of(st.floats(0.05, 0.99), st.just(1.0)))
    s = build_system(gas, _at_mach(gas, mach, draw(_log_uniform(0.2, 5.0))))
    side = draw(st.sampled_from([-1.0, 1.0]))
    if mach == 1.0:
        y0 = transonic_frame(s).points(-1e-3 * s.scale)
    else:
        y0 = np.array([s.u_plus, s.theta_plus]) + side * 1e-3 * s.scale * eigen_2x2(s.matrix).e2
    return phase_field(s), y0, PACKAGE_SETTINGS[draw(st.sampled_from(sorted(PACKAGE_SETTINGS)))]


@hyp_settings(max_examples=40)
@given(_random_runs())
def test_stepper_matches_rk45_on_random_gases(run):
    # gamma uniform in [1.05, 1.9]; R, mu and theta+ log-uniform in [0.2, 5];
    # kappa log-uniform in [0.05, 20]; v+ = 1; M+ in [0.05, 0.99] or sonic
    field, y0, settings = run
    _check_against_rk45(field, y0, dataclasses.replace(settings, max_steps=30), 30)


def test_gauss_legendre_table_matches_scipy():
    nodes, weights = roots_legendre(20)
    assert _same(_GL_NODES, nodes)
    assert _same(_GL_WEIGHTS, weights)
