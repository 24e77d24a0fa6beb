"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything is pinned to closed-form or independently derived
values; no tolerance is deferred to calibration.
"""

import math

import numpy as np
import pytest

from inflow_layer import (EndState, GasParams, Query, build_system,
                          classify_regime, eigen_2x2, field_exact, field_poly,
                          nullcline_h2, trace_gamma, trace_sigma,
                          transonic_frame)
from inflow_layer.cli import run_sweep
from inflow_layer.engine import REASON_OFF_CURVE
from inflow_layer.portrait import render_portrait
from inflow_layer.tracer import (CURVE_GAMMA1, CURVE_GAMMA2,
                                 TERMINAL_CONVERGED_TO_S2,
                                 TERMINAL_HIT_THETA_AXIS, TERMINAL_HIT_U_AXIS,
                                 TraceOptions)
from conftest import random_system
from degenerate import DegenerateKind, classify_degenerate
from sonic_reference import w_equations

LAMBDA_NEG = 0.3507810593582122     # |negative eigenvalue|, canonical subsonic
A2 = 14.0 / 13.0                    # center-direction quadratic coefficient
TAU_SLOPE = -0.33806170189140655    # sonic tangent slope
TAU_P_SLOPE = -0.35078105935821224  # subsonic tangent slope


def _ok(msg):
    print(f"[PASS] {msg}")


def _left_on(curve, i, right):
    u_b = float(curve.samples[i, 0])
    th_b = float(curve.samples[i, 1])
    return EndState(u_b * right.v / right.u, u_b, th_b)


def _sample_indices(curve, n=20):
    idx = np.linspace(2, len(curve.samples) - 2, n).astype(int)
    return sorted(set(idx))


def test_criterion_1_rhs_identity(rng):
    n_sets, n_pts = 100, 10_000
    worst = 0.0
    for _ in range(n_sets):
        s = random_system(rng)
        u = rng.uniform(0.0, 3.0, n_pts) * s.u_plus
        u[u == 0.0] = 1e-6 * s.u_plus
        th = rng.uniform(0.0, 3.0, n_pts) * s.theta_plus
        th[th == 0.0] = 1e-6 * s.theta_plus
        eu, eth = field_exact(u, th, s)
        pu, pth = field_poly(u, th, s)
        denom_u = np.maximum(np.abs(eu), 1.0)
        denom_t = np.maximum(np.abs(eth), 1.0)
        worst = max(worst,
                    float(np.max(np.abs(eu - pu) / denom_u)),
                    float(np.max(np.abs(eth - pth) / denom_t)))
    assert worst < 1e-12
    _ok(f"criterion 1: rational and polynomial forms agree to {worst:.2e} "
        f"over {n_sets} x {n_pts} points")


def _equilibrium_term_mass(p, s):
    """Magnitude of the polynomial terms that must cancel at an equilibrium."""
    g = s.gas
    du = p.u - s.u_plus
    dth = p.theta - s.theta_plus
    c_sq = abs(g.R * s.theta_plus / (g.kappa * s.u_plus)) + abs(s.u_plus / (2 * g.kappa))
    c_mix = g.R / (g.kappa * (g.gamma - 1.0))
    m1 = abs(s.A11 * du) + abs(s.A12 * dth) + du * du / g.mu
    m2 = (abs(s.A21 * du) + abs(s.A22 * dth) + c_sq * du * du
          + abs(c_mix * du * dth) + abs(du) ** 3 / (2 * g.kappa))
    return max(m1, m2, 1e-300)


def test_criterion_2_equilibria_and_sign_laws(rng):
    worst = 0.0
    for _ in range(1000):
        s = random_system(rng)
        for p in s.equilibria():
            fu, fth = field_poly(p.u, p.theta, s)
            mass = _equilibrium_term_mass(p, s)
            worst = max(worst, abs(fu) / mass, abs(fth) / mass)
        assert np.sign(s.det_A) == np.sign(s.mach_plus ** 2 - 1.0)
        if s.mach_plus >= 1.0:
            assert s.tr_A > 0.0
    assert worst < 1e-12
    _ok(f"criterion 2: equilibria vanish to {worst:.2e} (relative to the "
        "cancelled term mass); determinant and trace sign laws hold on 1000 "
        "random sets")


def test_criterion_3_canonical_subsonic(gas, right_subsonic):
    s = build_system(gas, right_subsonic)
    assert np.allclose(s.matrix, [[0.0, 1.0], [1.0, 2.5]], rtol=1e-10, atol=1e-10)
    assert s.det_A == pytest.approx(-1.0, rel=1e-10)
    eig = eigen_2x2(s.matrix)
    root = math.sqrt(10.25)
    assert eig.lambda1 == pytest.approx((2.5 + root) / 2.0, rel=1e-10)
    assert eig.lambda2 == pytest.approx((2.5 - root) / 2.0, rel=1e-10)
    assert s.alpha1 == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert s.alpha2 == pytest.approx(8.0 / 9.0, rel=1e-10)
    _ok(f"criterion 3: canonical subsonic set reproduces A, det A = -1, "
        f"eigenvalues ({eig.lambda1:.6f}, {eig.lambda2:.6f}), alpha = (4/3, 8/9)")


def test_criterion_4_canonical_transonic(gas, right_transonic):
    s = build_system(gas, right_transonic)
    frame = transonic_frame(s)
    lam2 = frame.lam_fast
    eig = eigen_2x2(s.matrix)
    assert abs(eig.lambda2) <= 1e-10 * s.scale
    lam2_closed = (0.4 / 1.4 + 1.0 / 0.4) * math.sqrt(1.4)
    assert lam2 == pytest.approx(lam2_closed, rel=1e-10)
    assert eig.lambda1 == pytest.approx(lam2_closed, rel=1e-10)
    D = frame.P_inv @ s.matrix @ np.column_stack([frame.e_fast, frame.e_slow])
    assert np.max(np.abs(D - np.diag([lam2, 0.0]))) < 1e-12 * lam2
    cls = classify_degenerate(*w_equations(frame), lam2,
                              delta=1e-2 * max(1.0, s.u_plus))
    assert cls.m == 2
    assert cls.a_m == pytest.approx(A2, rel=1e-2)
    assert cls.kind is DegenerateKind.SADDLE_NODE_NEG_AXIS
    _ok(f"criterion 4: transonic set gives lambda = (0, {lam2:.6f}), "
        f"clean diagonalization, classifier m=2, a2={cls.a_m:.6f} "
        f"(closed form {A2:.6f}), saddle-node tangent to the negative center axis")


def test_criterion_5_curve_tracing(gas, right_transonic, right_subsonic,
                                   right_subcase_b, transonic_curves,
                                   subsonic_curves, subcase_b_curves):
    s_t = build_system(gas, right_transonic)
    s_s = build_system(gas, right_subsonic)
    sigma = transonic_curves["sigma"]
    assert sigma.terminal == TERMINAL_HIT_U_AXIS
    assert sigma.terminal_point.u <= 1e-10
    assert s_t.theta_plus < sigma.terminal_point.theta < float(nullcline_h2(0.0, s_t))
    g1 = subsonic_curves["gamma1"]
    assert g1.terminal == TERMINAL_HIT_U_AXIS
    assert g1.terminal_point.u <= 1e-10
    assert s_s.theta_plus < g1.terminal_point.theta < float(nullcline_h2(0.0, s_s))
    g2 = subsonic_curves["gamma2"]
    assert g2.terminal == TERMINAL_CONVERGED_TO_S2
    assert g2.terminal_point.u == pytest.approx(4.0 / 3.0, rel=1e-4)
    assert g2.terminal_point.theta == pytest.approx(8.0 / 9.0, rel=1e-4)
    g2b = subcase_b_curves["gamma2"]
    s_b = build_system(gas, right_subcase_b)
    assert s_b.alpha2 == pytest.approx(-1.2035493827160494, rel=1e-6)
    assert g2b.terminal == TERMINAL_HIT_THETA_AXIS

    # seed-offset robustness
    frame = transonic_frame(s_t)
    half_sigma = trace_sigma(s_t, frame, TraceOptions(seed_offset=sigma.seed_offset / 2))
    half_g1 = trace_gamma(s_s, g1.graph, CURVE_GAMMA1,
                          TraceOptions(seed_offset=g1.seed_offset / 2))
    sup = 0.0
    for base, half, s in ((sigma, half_sigma, s_t), (g1, half_g1, s_s)):
        lo = max(base.params[-2], half.params[-2]) + 1e-6
        us = np.linspace(lo, s.u_plus - 1e-9, 300)
        sup = max(sup, float(np.max(np.abs([base.predict(u) - half.predict(u)
                                            for u in us]))))
    assert sup < 1e-6

    # tangency against the closed-form slopes
    for curve, s, slope in ((sigma, s_t, TAU_SLOPE), (g1, s_s, TAU_P_SLOPE),
                            (g2, s_s, TAU_P_SLOPE)):
        du = curve.samples[:, 0] - s.u_plus
        idx = int(np.argmin(np.abs(np.abs(du) - 1e-3 * s.u_plus)))
        secant = (curve.samples[idx, 1] - s.theta_plus) / du[idx]
        assert secant == pytest.approx(slope, rel=1e-2)
    _ok("criterion 5: sigma/gamma1 end on u = 0 inside (theta+, h2(0)); gamma2 "
        "reaches S2 = (4/3, 8/9) to 1e-4 (case a) and theta = 0 (case b); "
        f"seed halving moves curves by {sup:.2e}; near-S1 secants match the "
        f"tangent slopes {TAU_SLOPE:.6f} / {TAU_P_SLOPE:.6f} within 1%")


def test_criterion_6_existence_round_trip(engine, gas, right_transonic,
                                          right_subsonic, transonic_curves,
                                          subsonic_curves):
    checked = 0
    for right, curves in ((right_transonic, transonic_curves),
                          (right_subsonic, subsonic_curves)):
        for label, curve in curves.items():
            signs = (-1, -1, 1) if label == CURVE_GAMMA2 else (1, 1, -1)
            for i in _sample_indices(curve, 20):
                q = Query(_left_on(curve, i, right), right, gas)
                verdict = engine.decide(q)
                assert verdict.exists and verdict.curve == label, (label, i, verdict)
                prof = engine.compute_profile(q, verdict)
                assert prof.metrics["endpoint_gap"] <= 1e-8
                assert prof.metrics["monotone_ok"]
                assert prof.metrics["signs"] == signs
                assert prof.metrics["residual_sup"] <= 1e-8
                checked += 1
            # off-curve rejection at +5 percent theta
            mid = _left_on(curve, len(curve.samples) // 2, right)
            bumped = EndState(mid.v, mid.u, mid.theta + 0.05 * right.theta)
            v = engine.decide(Query(bumped, right, gas))
            assert not v.exists and v.reason == REASON_OFF_CURVE
    _ok(f"criterion 6: {checked} on-curve samples decide Exists, profiles reach "
        "the far field within 1e-8 with the theorem's monotonicity signs and "
        "residual <= 1e-8; +5% theta perturbations report off_curve")


def test_criterion_7_decay_rates(engine, gas, right_transonic, right_subsonic,
                                 transonic_curves, subsonic_curves):
    g1 = subsonic_curves["gamma1"]
    q = Query(_left_on(g1, len(g1.samples) // 2, right_subsonic), right_subsonic, gas)
    rep = engine.compute_profile(q).metrics["decay"]
    assert rep.kind == "exponential"
    assert rep.rate == pytest.approx(LAMBDA_NEG, rel=0.05)

    sigma = transonic_curves["sigma"]
    q = Query(_left_on(sigma, len(sigma.samples) // 2, right_transonic),
              right_transonic, gas)
    rep_t = engine.compute_profile(q).metrics["decay"]
    assert rep_t.kind == "algebraic"
    assert rep_t.exponent == pytest.approx(-1.0, abs=0.1)
    assert rep_t.inv_coeff == pytest.approx(1.0 / A2, rel=0.1)
    assert rep_t.exponent_d1 == pytest.approx(-2.0, abs=0.2)
    _ok(f"criterion 7: subsonic tail rate {rep.rate:.6f} within 5% of "
        f"{LAMBDA_NEG:.6f}; transonic exponent {rep_t.exponent:.4f} in -1 +/- 0.1, "
        f"xi*(u+-U) = {rep_t.inv_coeff:.6f} within 10% of {1.0 / A2:.6f}, "
        f"derivative exponent {rep_t.exponent_d1:.4f} in -2 +/- 0.2")


def test_criterion_8_trichotomy_sweep():
    gas = GasParams(1.4, 1.0, 1.0, 1.0)
    m_star = math.sqrt(0.4 / 2.8)
    machs = np.linspace(0.25, 1.25, 200)
    rows = run_sweep(gas, 1.0, 1.0, machs.tolist())
    for row in rows:
        m = row["mach_plus"]
        regime = classify_regime(m).tag
        assert row["regime"] == regime
        assert np.sign(row["det_A"]) == np.sign(m * m - 1.0)
        assert (row["alpha2"] <= 0.0) == (m <= m_star)
        if regime == "supersonic":
            assert row["lambda2"] > 0.0
            assert row["gamma2_terminal"] == ""
        elif regime == "subsonic":
            assert row["lambda1"] > 0.0 > row["lambda2"]
            expected = (TERMINAL_HIT_THETA_AXIS if row["alpha2"] <= 0.0
                        else TERMINAL_CONVERGED_TO_S2)
            assert row["gamma2_terminal"] == expected
    kinds = [r["gamma2_terminal"] for r in rows if r["regime"] == "subsonic"]
    flips = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
    assert flips == 1
    regimes = [r["regime"] for r in rows]
    assert sum(1 for a, b in zip(regimes, regimes[1:]) if a != b) in (1, 2)
    _ok("criterion 8: 200-point Mach sweep flips regime, eigenvalue signs, "
        "alpha2 sign, and the traced gamma2 terminal exactly at the predicted "
        "boundaries")


def test_criterion_9_portrait_regression(gas, right_transonic, right_subsonic,
                                         right_subcase_b, transonic_curves,
                                         subsonic_curves, subcase_b_curves,
                                         tmp_path):
    import xml.etree.ElementTree as ET

    def find(root, ident):
        el = root.find(f".//*[@id='{ident}']")
        assert el is not None, ident
        return el

    s = build_system(gas, right_transonic)
    root = ET.fromstring(render_portrait(s, transonic_curves))
    sig = find(root, "curve-sigma")
    assert abs(float(sig.get("data-u-end"))) <= 1e-9
    assert 1.0 < float(sig.get("data-theta-end")) < 1.68
    assert float(sig.get("data-u-start")) == pytest.approx(math.sqrt(1.4), rel=1e-12)
    find(root, "boundary-l1"); find(root, "boundary-l2"); find(root, "boundary-l3")
    assert root.find(".//*[@id='eq-S2']") is None

    s = build_system(gas, right_subsonic)
    root = ET.fromstring(render_portrait(s, subsonic_curves, path=tmp_path / "p.svg"))
    g2 = find(root, "curve-gamma2")
    assert float(g2.get("data-u-end")) == pytest.approx(4.0 / 3.0, rel=1e-4)
    assert float(g2.get("data-theta-end")) == pytest.approx(8.0 / 9.0, rel=1e-4)
    s2 = find(root, "eq-S2")
    assert float(s2.get("data-u")) == pytest.approx(4.0 / 3.0, rel=1e-12)
    g1 = find(root, "curve-gamma1")
    assert abs(float(g1.get("data-u-end"))) <= 1e-10
    find(root, "boundary-l4"); find(root, "boundary-l5")

    s = build_system(gas, right_subcase_b)
    root = ET.fromstring(render_portrait(s, subcase_b_curves))
    g2 = find(root, "curve-gamma2")
    assert abs(float(g2.get("data-theta-end"))) <= 1e-10
    assert float(find(root, "eq-S2").get("data-theta")) < 0.0
    _ok("criterion 9: portraits reproduce the required topology (sigma from Z0 "
        "to S1 in Region I; gamma2 joining S1 to S2 above the axis, or reaching "
        "theta = 0 when S2 sits below it)")
