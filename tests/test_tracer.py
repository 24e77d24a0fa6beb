import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inflow_layer import (DomainError, EndState, ExistenceEngine, GasParams,
                          OutOfRange, PhasePoint, Query, TraceOptions, build_system,
                          curve_membership, eigen_2x2, field_poly,
                          export_curve_csv, export_curve_json, integrate,
                          near_equilibrium, nullcline_h2, phase_field,
                          saddle_graph, theta_crosses_zero, trace_gamma,
                          trace_sigma, transonic_frame, u_crosses_zero)
from inflow_layer import tracer
from inflow_layer.tracer import (CAPTURE_RADIUS, CURVE_GAMMA1, CURVE_GAMMA2,
                                 TERMINAL_BUDGET, TERMINAL_CONVERGED_TO_S2,
                                 TERMINAL_HIT_THETA_AXIS, TERMINAL_HIT_U_AXIS,
                                 _TERMINALS as _TERMINAL_OF, Pchip, s2_basin,
                                 trace_gamma2_to_basin)
from inflow_layer.cli import SWEEP_TRACE, run_sweep
from inflow_layer.integrator import MAX_INSERTED, NEAR_EQUILIBRIUM, capped_knots
from inflow_layer.system import residual_sup
from conftest import random_system
from sonic_reference import graph_defect


@pytest.fixture(scope="module")
def s_sub(gas, right_subsonic):
    return build_system(gas, right_subsonic)


@pytest.fixture(scope="module")
def s_trans(gas, right_transonic):
    return build_system(gas, right_transonic)


def _interior(curve, margin=None):
    """Samples away from S1, the terminal, and (for gamma2) S2."""
    s = curve.system
    margin = margin if margin is not None else 20.0 * curve.seed_offset
    pts = curve.samples[1:-1]
    d_s1 = np.max(np.abs(pts - [s.u_plus, s.theta_plus]), axis=1)
    keep = d_s1 > margin
    if curve.label == CURVE_GAMMA2:
        d_s2 = np.max(np.abs(pts - [s.alpha1 * s.u_plus, s.alpha2 * s.theta_plus]), axis=1)
        keep &= d_s2 > 1e-3 * s.scale
    return pts[keep]


class TestSigma:
    def test_terminal_on_u_axis(self, transonic_curves, s_trans):
        c = transonic_curves["sigma"]
        assert c.terminal == TERMINAL_HIT_U_AXIS
        assert c.terminal_point.u <= 1e-10
        assert s_trans.theta_plus < c.terminal_point.theta < float(nullcline_h2(0.0, s_trans))

    def test_monotone_samples(self, transonic_curves):
        c = transonic_curves["sigma"]
        assert np.all(np.diff(c.samples[:, 0]) < 0.0)
        assert np.all(np.diff(c.samples[:, 1]) > 0.0)

    def test_first_sample_is_s1(self, transonic_curves, s_trans):
        c = transonic_curves["sigma"]
        assert tuple(c.samples[0]) == (s_trans.u_plus, s_trans.theta_plus)

    def test_forward_flow_signs_along_curve(self, transonic_curves):
        # the curve never touches a nullcline away from S1: U' > 0, Theta' < 0
        c = transonic_curves["sigma"]
        pts = _interior(c)
        fu, fth = field_poly(pts[:, 0], pts[:, 1], c.system)
        assert np.all(fu > 0.0) and np.all(fth < 0.0)

    def test_tangency_at_s1(self, transonic_curves, s_trans):
        c = transonic_curves["sigma"]
        frame = transonic_frame(s_trans)
        target_dist = 1e-3 * s_trans.u_plus
        du = c.samples[:, 0] - s_trans.u_plus
        idx = int(np.argmin(np.abs(np.abs(du) - target_dist)))
        secant = (c.samples[idx, 1] - s_trans.theta_plus) / du[idx]
        assert secant == pytest.approx(frame.e_slow[1], rel=1e-2)
        assert frame.e_slow[1] == pytest.approx(-0.33806170189140655, rel=1e-6)

    def test_seed_halving_consistency(self, s_trans, transonic_curves):
        base = transonic_curves["sigma"]
        frame = transonic_frame(s_trans)
        half = trace_sigma(s_trans, frame,
                           TraceOptions(seed_offset=base.seed_offset / 2.0))
        lo = max(base.params[-2], half.params[-2])
        hi = s_trans.u_plus
        us = np.linspace(lo + 1e-6, hi - 1e-9, 400)
        diff = np.abs([base.predict(u) - half.predict(u) for u in us])
        assert float(np.max(diff)) < 1e-6 * s_trans.theta_plus

    def test_center_coefficient_from_backward_time(self, s_trans):
        # near S1 the reciprocal distance grows linearly in backward time at
        # the center-direction quadratic rate; read off the reference trace,
        # since on sigma this window holds graph samples only
        frame = transonic_frame(s_trans)
        ref = _center_graph_reference(s_trans, frame, TraceOptions())
        y = s_trans.u_plus - ref.points[:, 0]
        mask = (y >= 2e-3 * s_trans.scale) & (y <= 2e-2 * s_trans.scale)
        assert np.count_nonzero(mask) > 30
        slope, _ = np.polyfit(-ref.xi[mask], 1.0 / y[mask], 1)
        assert -slope == pytest.approx(frame.flow[2], rel=0.1)

    def test_agrees_with_the_reference_trace(self, transonic_curves, s_trans):
        c = transonic_curves["sigma"]
        ref = _center_graph_reference(s_trans, transonic_frame(s_trans),
                                      TraceOptions(rel_tol=1e-13, sample_cap=2e-4))
        assert _TERMINAL_OF[ref.event.kind] == c.terminal
        ref_pts = ref.points[:-1]         # up to the terminal event
        interp = Pchip(ref_pts[::-1, 0], ref_pts[::-1, 1])
        # the samples the reference covers, from 1e-3 scale outward
        rows = c.samples[2:-1][c.samples[2:-1, 0] <= ref_pts[0, 0]]
        gap = np.abs([interp(u) - theta for u, theta in rows])
        assert len(rows) > 100 and np.all(np.isfinite(gap))
        assert gap.max() <= TOL_MEMBER / 10.0 * c.value_scale
        end = np.subtract(c.terminal_point.as_array(), ref.event.point.as_array())
        assert np.max(np.abs(end)) <= TOL_MEMBER / 10.0 * s_trans.scale

    def test_stiff_saddle_node_rides_its_graph(self, monkeypatch):
        # lambda2 / (a2 scale) = 625: an integration started 1e-3 scale from
        # S1 would crawl along the center manifold with steps capped by
        # lambda2 (about 190 000 of them); sigma rides its certified graph
        # to 0.22 scale instead, and its profiles ride the same graph
        counted = _CountedIntegrate()
        monkeypatch.setattr(tracer, "integrate", counted)
        gas = GasParams(1.4241, 5.5366, 6.3002, 0.10869)
        right = EndState(1.0, math.sqrt(gas.gamma * gas.R * 0.3812), 0.3812)
        engine = ExistenceEngine()
        c = engine.curves_for(gas, right)["sigma"]
        assert c.terminal == TERMINAL_HIT_U_AXIS
        assert sum(counted.steps) <= 5000
        inside = int(np.searchsorted(-c.params, -(right.u - 0.5 * c.graph_radius)))
        for i in (inside, len(c.samples) // 2):
            u, theta = (float(x) for x in c.samples[i])
            prof = engine.compute_profile(
                Query(EndState(u * right.v / right.u, u, theta), right, gas))
            assert prof.curve == "sigma"
            assert prof.metrics["residual_sup"] <= 1e-8
            assert prof.metrics["endpoint_gap"] <= 1e-8 * c.system.scale
            assert prof.metrics["monotone_ok"]
            assert prof.metrics["decay"].exponent == pytest.approx(-1.0, abs=0.1)


class TestGamma:
    def test_gamma1_terminal(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma1"]
        assert c.terminal == TERMINAL_HIT_U_AXIS
        assert c.terminal_point.u <= 1e-10
        assert 1.0 < c.terminal_point.theta < 1.6  # h2(0) = 1.6 here

    def test_gamma2_converges_to_s2(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma2"]
        assert c.terminal == TERMINAL_CONVERGED_TO_S2
        assert c.terminal_point.u == pytest.approx(4.0 / 3.0, rel=1e-4)
        assert c.terminal_point.theta == pytest.approx(8.0 / 9.0, rel=1e-4)

    def test_gamma2_subcase_b_hits_theta_axis(self, subcase_b_curves, right_subcase_b):
        c = subcase_b_curves["gamma2"]
        s = c.system
        assert s.alpha2 == pytest.approx(-1.2035493827160494, rel=1e-10)
        assert c.terminal == TERMINAL_HIT_THETA_AXIS
        assert c.terminal_point.theta <= 1e-10
        assert right_subcase_b.u < c.terminal_point.u < s.alpha1 * right_subcase_b.u

    def test_monotonicity(self, subsonic_curves):
        g1 = subsonic_curves["gamma1"]
        assert np.all(np.diff(g1.samples[:, 0]) < 0.0)
        assert np.all(np.diff(g1.samples[:, 1]) > 0.0)
        g2 = subsonic_curves["gamma2"]
        assert np.all(np.diff(g2.samples[:, 0]) > 0.0)
        assert np.all(np.diff(g2.samples[:, 1]) < 0.0)

    def test_forward_flow_signs(self, subsonic_curves):
        g1 = subsonic_curves["gamma1"]
        pts = _interior(g1)
        fu, fth = field_poly(pts[:, 0], pts[:, 1], g1.system)
        assert np.all(fu > 0.0) and np.all(fth < 0.0)
        g2 = subsonic_curves["gamma2"]
        pts = _interior(g2)
        fu, fth = field_poly(pts[:, 0], pts[:, 1], g2.system)
        assert np.all(fu < 0.0) and np.all(fth > 0.0)

    def test_tangency_matches_stable_line(self, subsonic_curves, s_sub):
        eig = eigen_2x2(s_sub.matrix)
        slope = eig.e2[1] / eig.e2[0]
        for label in ("gamma1", "gamma2"):
            c = subsonic_curves[label]
            du = c.samples[:, 0] - s_sub.u_plus
            idx = int(np.argmin(np.abs(np.abs(du) - 1e-3 * s_sub.u_plus)))
            secant = (c.samples[idx, 1] - s_sub.theta_plus) / du[idx]
            assert secant == pytest.approx(slope, rel=1e-2)
        assert slope == pytest.approx(-0.35078105935821224, rel=1e-6)

    def test_seed_halving_consistency(self, subsonic_curves, s_sub):
        base = subsonic_curves["gamma1"]
        half = trace_gamma(s_sub, base.graph, CURVE_GAMMA1,
                           TraceOptions(seed_offset=base.seed_offset / 2.0))
        lo = max(base.params[-2], half.params[-2])
        us = np.linspace(lo + 1e-6, s_sub.u_plus - 1e-9, 400)
        diff = np.abs([base.predict(u) - half.predict(u) for u in us])
        assert float(np.max(diff)) < 1e-6 * s_sub.theta_plus

    def test_curve_is_frozen_with_its_interpolant(self, subsonic_curves):
        # curves are shared across queries and threads: nothing writes to one
        c = subsonic_curves["gamma1"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.samples = c.samples[:2]
        q = 0.5 * (c.params[2] + c.params[3])
        assert c.predict(q) == c.interpolant(q)

    def test_terminal_kind_tracks_alpha2_sign(self, rng):
        gas = GasParams(1.4, 1.0, 1.0, 1.0)
        m_star = math.sqrt(0.4 / 2.8)
        opts = TraceOptions(rel_tol=1e-8, abs_tol=1e-10, sample_cap=5e-2,
                            thin_spacing=1e-4)
        for mach in (0.2, 0.3, m_star - 0.01, m_star + 0.01, 0.5, 0.8, 0.95):
            right = EndState(1.0, mach * math.sqrt(1.4), 1.0)
            s = build_system(gas, right)
            c = trace_gamma(s, saddle_graph(s, eigen_2x2(s.matrix)), CURVE_GAMMA2, opts)
            expected = (TERMINAL_CONVERGED_TO_S2 if s.alpha2 > 0.0
                        else TERMINAL_HIT_THETA_AXIS)
            assert c.terminal == expected

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5, 1e-7, 1e-9])
    def test_terminal_is_continuous_across_the_alpha2_switch(self, gas, delta):
        # at M* = sqrt((gamma - 1) / (2 gamma)) S2 reaches the theta axis:
        # just below it gamma2 hits the axis, just above it converges to an
        # S2 that close to the axis, and the terminal u moves like sqrt(delta)
        m_star = math.sqrt(0.4 / 2.8)
        ends = []
        for mach in (m_star * (1.0 - delta), m_star * (1.0 + delta)):
            s = build_system(gas, EndState(1.0, mach * math.sqrt(1.4), 1.0))
            c = trace_gamma(s, saddle_graph(s, eigen_2x2(s.matrix)), CURVE_GAMMA2)
            ends.append((c.terminal, c.terminal_point.u))
        (below, u_below), (above, u_above) = ends
        assert below == TERMINAL_HIT_THETA_AXIS and above == TERMINAL_CONVERGED_TO_S2
        assert abs(u_above - u_below) <= 2.0 * math.sqrt(delta)

    def test_gamma2_at_alpha2_zero_ends_on_the_theta_axis(self):
        # at M+ = sqrt((gamma - 1) / (2 gamma)) = 0.5 exactly, S2 lies on
        # theta = 0, so the capture at S2 is gamma2's axis terminal; it used
        # to be reported as converged_to_s2 and refused as UnexpectedTerminal
        gas, right = GasParams(2.0, 1.0, 1.0, 1.0), EndState(1.0, math.sqrt(0.5), 1.0)
        s = build_system(gas, right)
        assert s.alpha2 == 0.0 and s.s2.theta == 0.0
        engine = ExistenceEngine()
        c = engine.curves_for(gas, right)[CURVE_GAMMA2]
        assert c.terminal == TERMINAL_HIT_THETA_AXIS
        assert 0.0 < c.terminal_point.theta <= CAPTURE_RADIUS * s.scale
        n = len(c.samples)
        for i in (n // 4, n // 2, n - 3):
            u, theta = (float(x) for x in c.samples[i])
            q = Query(EndState(u * right.v / right.u, u, theta), right, gas)
            verdict = engine.decide(q)
            assert verdict.exists and verdict.curve == CURVE_GAMMA2, i
            prof = engine.compute_profile(q, verdict)
            assert prof.metrics["monotone_ok"], i
            assert prof.metrics["residual_sup"] <= 1e-8, i
            assert prof.metrics["endpoint_gap"] <= 1e-8, i
        rows = run_sweep(gas, 1.0, 1.0, [0.49, 0.5, 0.51])
        assert [r["gamma2_terminal"] for r in rows] == [
            TERMINAL_HIT_THETA_AXIS, TERMINAL_HIT_THETA_AXIS, TERMINAL_CONVERGED_TO_S2]
        # just below, S2 lies within the capture radius under the axis, and
        # the capture is still the axis terminal
        right = EndState(1.0, math.sqrt(0.5) * (1.0 - 1e-10), 1.0)
        assert build_system(gas, right).alpha2 < 0.0
        assert engine.curves_for(gas, right)[CURVE_GAMMA2].terminal == TERMINAL_HIT_THETA_AXIS

    def test_requires_saddle(self, s_trans):
        # checked before the graph is built, whose divisor k lambda2 -
        # lambda1 would vanish at k = 2 on this pair
        eig = eigen_2x2(np.diag([1.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                saddle_graph(s_trans, eig)

    def test_eig_reads_the_graph(self, subsonic_curves, transonic_curves, s_sub):
        # the saddle's eigenpair, bit for bit, on both gamma branches
        def bits(e):
            return np.hstack([e.lambda1, e.lambda2, e.e1, e.e2]).tobytes()

        for label in (CURVE_GAMMA1, CURVE_GAMMA2):
            assert bits(subsonic_curves[label].eig) == bits(eigen_2x2(s_sub.matrix))
        assert transonic_curves["sigma"].eig is None


@pytest.mark.parametrize("label", ["sigma", CURVE_GAMMA1, CURVE_GAMMA2])
def test_budget_terminal_reported(label, s_sub, s_trans):
    # a budget stop is reported as such on every curve; gamma2 must not
    # mistake it for a wrong terminal (UnexpectedTerminal)
    opts = TraceOptions(max_steps=5)
    if label == "sigma":
        c = trace_sigma(s_trans, transonic_frame(s_trans), opts)
    else:
        c = trace_gamma(s_sub, saddle_graph(s_sub, eigen_2x2(s_sub.matrix)), label, opts)
    assert c.terminal == TERMINAL_BUDGET


@pytest.mark.parametrize("field, value", [
    ("rel_tol", 0.0), ("rel_tol", -1e-10), ("rel_tol", math.nan), ("rel_tol", math.inf),
    ("rel_tol", 1e-16),
    ("abs_tol", 0.0), ("abs_tol", math.nan), ("abs_tol", math.inf),
    ("sample_cap", 0.0), ("sample_cap", -2e-3), ("sample_cap", math.nan),
    ("thin_spacing", 0.0), ("thin_spacing", math.inf),
    ("seed_offset", -1e-6), ("seed_offset", 0.0), ("seed_offset", math.nan),
    ("seed_offset", math.inf),
    ("max_steps", 0), ("max_steps", -5),
])
def test_trace_options_rejected_at_construction(field, value):
    # each of these used to fail late, inside tracing, with a bare
    # ValueError or a misleading TraceFailed
    with pytest.raises(ValueError, match=field):
        TraceOptions(**{field: value})


class TestMembership:
    def test_stored_samples_are_members(self, subsonic_curves):
        for label in ("gamma1", "gamma2"):
            c = subsonic_curves[label]
            for i in (1, len(c.samples) // 3, 2 * len(c.samples) // 3):
                p = PhasePoint(float(c.samples[i, 0]), float(c.samples[i, 1]))
                m = curve_membership(c, p, tol=1e-6)
                assert m.on_curve, (label, i, m.distance)

    def test_five_percent_perturbation(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma1"]
        i = len(c.samples) // 2
        p = PhasePoint(float(c.samples[i, 0]),
                       float(c.samples[i, 1]) + 0.05 * s_sub.theta_plus)
        m = curve_membership(c, p, tol=1e-6)
        assert not m.on_curve
        assert m.distance == pytest.approx(0.05 * s_sub.theta_plus, rel=1e-6)

    def test_midpoints_are_members(self, subsonic_curves):
        c = subsonic_curves["gamma1"]
        for i in range(10, len(c.samples) - 10, len(c.samples) // 7):
            u_mid = 0.5 * (c.samples[i, 0] + c.samples[i + 1, 0])
            th_mid = 0.5 * (c.samples[i, 1] + c.samples[i + 1, 1])
            # the chord midpoint is close to but not on the curve; the curve
            # value at u_mid must be reproduced to membership accuracy
            m = curve_membership(c, PhasePoint(float(u_mid), float(th_mid)), tol=1e-6)
            chord_gap = abs(th_mid - c.predict(float(u_mid)))
            assert (m.on_curve or chord_gap > 1e-6), (i, m.distance)

    def test_on_curve_points_between_samples(self, subsonic_curves):
        c = subsonic_curves["gamma1"]
        for i in range(10, len(c.samples) - 10, len(c.samples) // 7):
            u_mid = float(0.5 * (c.samples[i, 0] + c.samples[i + 1, 0]))
            p = PhasePoint(u_mid, c.predict(u_mid))
            m = curve_membership(c, p, tol=1e-6)
            assert m.on_curve

    def test_borderline_refinement_runs(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma1"]
        u_mid = float(0.5 * (c.samples[30, 0] + c.samples[31, 0]))
        p = PhasePoint(u_mid, c.predict(u_mid) + 2e-6 * s_sub.theta_plus)
        m = curve_membership(c, p, tol=1e-6)
        assert m.refined
        assert not m.on_curve
        assert m.distance == pytest.approx(2e-6 * s_sub.theta_plus, rel=1e-2)

    def test_gamma2_parameterized_by_theta(self, subsonic_curves):
        c = subsonic_curves["gamma2"]
        i = len(c.samples) // 2
        p = PhasePoint(float(c.samples[i, 0]), float(c.samples[i, 1]))
        m = curve_membership(c, p, tol=1e-6)
        assert m.on_curve
        assert m.parameter == p.theta

    def test_out_of_range(self, subsonic_curves):
        g1 = subsonic_curves["gamma1"]
        with pytest.raises(OutOfRange):
            curve_membership(g1, PhasePoint(1.5, 1.0), tol=1e-6)  # u > u+
        g2 = subsonic_curves["gamma2"]
        with pytest.raises(OutOfRange):
            curve_membership(g2, PhasePoint(1.1, 1.5), tol=1e-6)  # theta > theta+

    def test_positivity_precondition(self, subsonic_curves):
        c = subsonic_curves["gamma1"]
        with pytest.raises(DomainError):
            curve_membership(c, PhasePoint(-0.1, 1.2))

    def test_s1_is_degenerate_member(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma1"]
        m = curve_membership(c, s_sub.s1, tol=1e-6)
        assert m.on_curve


class TestExports:
    def test_csv_round_trip(self, subsonic_curves, tmp_path):
        c = subsonic_curves["gamma1"]
        path = tmp_path / "gamma1.csv"
        export_curve_csv(c, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "u", "theta"]
        assert len(rows) == len(c.samples) + 1
        got = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        assert np.array_equal(got, c.samples)

    def test_json_metadata(self, subsonic_curves, tmp_path):
        c = subsonic_curves["gamma2"]
        path = tmp_path / "gamma2.json"
        export_curve_json(c, path)
        meta = json.loads(path.read_text())
        assert meta["label"] == CURVE_GAMMA2
        assert meta["terminal"]["kind"] == TERMINAL_CONVERGED_TO_S2
        assert meta["n_samples"] == len(c.samples)
        assert meta["s1_included"] is True


class TestRandomSubsonicSweep:
    def test_gamma_traces_stay_valid(self, rng):
        opts = TraceOptions(rel_tol=1e-9, abs_tol=1e-11, sample_cap=5e-2,
                            thin_spacing=1e-4)
        for _ in range(6):
            s = random_system(rng, regime="subsonic")
            graph = saddle_graph(s, eigen_2x2(s.matrix))
            g1 = trace_gamma(s, graph, CURVE_GAMMA1, opts)
            assert g1.terminal == TERMINAL_HIT_U_AXIS
            g2 = trace_gamma(s, graph, CURVE_GAMMA2, opts)
            assert g2.terminal in (TERMINAL_CONVERGED_TO_S2, TERMINAL_HIT_THETA_AXIS)


SOUND = math.sqrt(1.4)                            # canonical gas at theta+ = 1
NEAR_SONIC = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]       # 1 - M+
TOL_MEMBER = 1e-6


def _far_field(mach):
    s = build_system(GasParams(1.4, 1.0, 1.0, 1.0), EndState(1.0, mach * SOUND, 1.0))
    return s, saddle_graph(s, eigen_2x2(s.matrix))


def _eigenline_reference(s, branch):
    """The reference trace: backward integration from the seed offset on the
    stable eigenline (on the branch's side: u > u+ for gamma2, u < u+ for
    gamma1, the stable eigenvector e2 having a positive u-component), with
    the trace's events, sampled ten times finer than a curve so that its
    interpolant is exact to well below the membership tolerance."""
    opts = TraceOptions()
    events = ([u_crosses_zero()] if branch == CURVE_GAMMA1 else
              [theta_crosses_zero(), near_equilibrium(s.s2, CAPTURE_RADIUS * s.scale)])
    side = 1.0 if branch == CURVE_GAMMA2 else -1.0
    seed = (np.array([s.u_plus, s.theta_plus])
            + side * 1e-6 * s.scale * eigen_2x2(s.matrix).e2)
    return integrate(phase_field(s), seed,
                     opts.integration_settings(), events=events,
                     max_state_step=0.1 * opts.sample_cap * s.scale)


def _center_graph_reference(s, graph, opts):
    """The sigma reference: backward integration from the center-manifold
    graph point at w = -1e-3 scale with the trace's event and ``opts``'s
    settings, sampled ten times finer than a curve."""
    return integrate(phase_field(s), graph.points(-1e-3 * s.scale),
                     opts.integration_settings(), events=[u_crosses_zero()],
                     max_state_step=0.1 * opts.sample_cap * s.scale)


class _CountedIntegrate:
    """Stands in for ``tracer.integrate`` and records each run's steps."""

    def __init__(self):
        self.steps = []

    def __call__(self, *args, **kwargs):
        res = integrate(*args, **kwargs)
        self.steps.append(res.n_steps)
        return res


class TestGraphSeed:
    @pytest.mark.parametrize("mach", [1.0 / SOUND, 0.3 / SOUND, 0.99, 0.999])
    @pytest.mark.parametrize("branch", [CURVE_GAMMA1, CURVE_GAMMA2])
    def test_agrees_with_the_eigenline_trace(self, mach, branch):
        s, graph = _far_field(mach)
        curve = trace_gamma(s, graph, branch)
        ref = _eigenline_reference(s, branch)
        pidx = curve.param_index
        assert _TERMINAL_OF[ref.event.kind] == curve.terminal
        ref_pts = ref.points[:-1]         # up to the terminal event
        interp = Pchip(ref_pts[::-1, pidx], ref_pts[::-1, 1 - pidx])
        rows = curve.samples[2:-1]
        gap = np.abs([interp(q) - v for q, v in zip(rows[:, pidx], rows[:, 1 - pidx])])
        assert np.all(np.isfinite(gap))
        assert gap.max() <= TOL_MEMBER / 10.0 * curve.value_scale
        end = np.subtract(curve.terminal_point.as_array(), ref.event.point.as_array())
        assert np.max(np.abs(end)) <= TOL_MEMBER / 10.0 * s.scale

    def test_near_sonic_gamma2_runs_no_integrator(self, monkeypatch):
        counted = _CountedIntegrate()
        monkeypatch.setattr(tracer, "integrate", counted)
        for gap in [1e-2] + NEAR_SONIC:
            s, graph = _far_field(1.0 - gap)
            c = trace_gamma(s, graph, CURVE_GAMMA2)
            assert c.terminal == TERMINAL_CONVERGED_TO_S2
            assert np.linalg.norm(c.terminal_point.as_array() - s.s2.as_array()) \
                <= CAPTURE_RADIUS * s.scale
        assert counted.steps == []

    def test_near_sonic_gamma1_cost_is_bounded(self, monkeypatch):
        counted = _CountedIntegrate()
        monkeypatch.setattr(tracer, "integrate", counted)
        steps = {}
        for gap in (1e-2, 1e-7):
            s, graph = _far_field(1.0 - gap)
            counted.steps.clear()
            assert trace_gamma(s, graph, CURVE_GAMMA1).terminal == TERMINAL_HIT_U_AXIS
            steps[gap] = sum(counted.steps)
        assert steps[1e-7] <= 2 * steps[1e-2]

    def test_sonic_limit(self, transonic_curves):
        # as M+ -> 1-, gamma1 tends to sigma and gamma2 shrinks to {S1},
        # both at the rate 1 - M+
        sigma = transonic_curves["sigma"]
        gaps = [1e-2] + NEAR_SONIC
        to_sigma, spans = [], []
        for gap in gaps:
            s, graph = _far_field(1.0 - gap)
            g1 = trace_gamma(s, graph, CURVE_GAMMA1)
            g2 = trace_gamma(s, graph, CURVE_GAMMA2)
            us = np.linspace(0.05, s.u_plus - 1e-3, 100)
            to_sigma.append(max(abs(g1.predict(u) - sigma.predict(u)) for u in us))
            spans.append(float(np.max(np.abs(g2.samples - s.s1.as_array()))))
        for gap, d, span in zip(gaps, to_sigma, spans):
            assert d <= gap and span <= 3.0 * gap * s.scale, (gap, d, span)
        assert to_sigma == sorted(to_sigma, reverse=True)
        assert spans == sorted(spans, reverse=True)

    def test_graph_seed_when_the_graph_certifies_nothing(self, s_sub):
        # a seed offset beyond the certified radius: the integration starts
        # from the graph point at the seed offset
        opts = TraceOptions(seed_offset=0.2)
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        tol = opts.abs_tol + opts.rel_tol * s_sub.scale
        for branch, side in ((CURVE_GAMMA1, -1.0), (CURVE_GAMMA2, 1.0)):
            assert tracer._certified_radii(graph, side, 0.2, tol, s_sub).size == 0
            c = trace_gamma(s_sub, graph, branch, opts)
            assert np.array_equal(c.samples[1], graph.points(side * 0.2))
            assert c.terminal == (TERMINAL_HIT_U_AXIS if branch == CURVE_GAMMA1
                                  else TERMINAL_CONVERGED_TO_S2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["h", "flow", "defect_coef"])
    def test_a_non_finite_coefficient_certifies_no_radius(self, s_sub, name, value):
        # a failed test, NaN included, ends the radii; a defect or flow that
        # certifies nothing leaves the seed at the seed offset
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        opts = TraceOptions()
        eps, tol = 1e-6 * s_sub.scale, opts.abs_tol + opts.rel_tol * s_sub.scale
        for i in (2, 5, -1):
            coef = getattr(graph, name).copy()
            coef[i] = value
            bad = dataclasses.replace(graph, **{name: coef})
            for side in (-1.0, 1.0):
                assert tracer._certified_radii(bad, side, eps, tol, s_sub).size == 0
        if name == "h":
            return
        c = tracer._trace(s_sub, CURVE_GAMMA1, bad, -1.0, [u_crosses_zero()], opts)
        assert c.graph_radius == eps
        assert np.array_equal(c.samples[1], graph.points(-eps))
        assert c.terminal == TERMINAL_HIT_U_AXIS

    def test_a_nan_field_coefficient_certifies_no_radius(self, s_sub):
        # a NaN in the cubic reaches the defect polynomial through the
        # graph's composition
        s = dataclasses.replace(s_sub, c_sq=math.nan)
        graph = saddle_graph(s, eigen_2x2(s_sub.matrix))
        assert np.isnan(graph.h[2:]).all() and np.isnan(graph.defect_coef).any()
        tol = TraceOptions().abs_tol + TraceOptions().rel_tol * s.scale
        for side in (-1.0, 1.0):
            assert tracer._certified_radii(graph, side, 1e-6 * s.scale, tol, s).size == 0

    def test_graph_samples_are_capped(self, subsonic_curves, s_sub):
        c = subsonic_curves["gamma1"]
        # the graph part, well inside the certified radius
        graph = c.samples[1:][np.max(np.abs(c.samples[1:] - s_sub.s1.as_array()), axis=1)
                              < 0.05 * s_sub.scale]
        steps = np.max(np.abs(np.diff(graph, axis=0)), axis=1)
        assert steps.max() <= TraceOptions().sample_cap * s_sub.scale

    def test_a_graph_that_misses_s2_stops_short_of_it(self):
        # a graph through S2 ends at S2's own graph point; one bent away from
        # S2 must not carry the branch past S2: it keeps its radii below
        # S2 / 2 and the integration goes on from there
        s, graph = _far_field(0.99)
        tol = TraceOptions().abs_tol + TraceOptions().rel_tol * s.scale
        radii = tracer._certified_radii(graph, 1.0, 1e-6 * s.scale, tol, s)
        r_s2 = float((graph.P_inv @ (s.s2.as_array() - s.s1.as_array()))[1])
        on, at_s2 = tracer._to_s2(graph, 1.0, radii, s, tol)
        assert at_s2 and on[-1] == r_s2
        assert (np.linalg.norm(graph.points(on[-1]) - s.s2.as_array())
                <= min(tol, CAPTURE_RADIUS * s.scale))
        bent = dataclasses.replace(graph, h=graph.h + np.eye(1, graph.h.size, 2)[0] * 1e-6)
        off, at_s2 = tracer._to_s2(bent, 1.0, radii, s, tol)
        assert not at_s2
        assert np.array_equal(off, radii[radii < 0.5 * r_s2])


def _reference_radii(graph, side, eps, tol, s):
    """The certified radii by a loop over the grid: per radius the defect
    composed from the field on Python floats and the graph point, then the
    residual rule from the top down on one-row arrays."""
    per_decade = tracer.SLIDE_POINTS_PER_DECADE
    radii = []
    for j in range(math.floor(math.log10(s.scale / eps) * per_decade) + 1):
        r = eps * 10.0 ** (j / per_decade)
        if abs(graph_defect(graph, side * r)) > tol * graph.lam_fast:
            break
        u, theta = graph.points(side * r)
        if not (u > 0.0 and theta > 0.0):
            break
        radii.append(r)

    def row_residual(r):
        w = [side * r]
        return residual_sup(s, np.hstack([graph.points(w), graph.velocity(w)]))

    while radii and row_residual(radii[-1]) > tracer.GRAPH_RESIDUAL:
        radii.pop()
    return np.array(radii)


def _reference_capped(graph, side, radii, cap):
    """The capped radii by one ``np.linspace`` per segment."""
    moves = np.max(np.abs(np.diff(graph.points(side * radii), axis=0)), axis=1)
    n_sub = (moves / cap).astype(int)
    parts = [np.linspace(a, b, n + 2)[:-1]
             for a, b, n in zip(radii[:-1], radii[1:], n_sub)]
    return np.concatenate(parts + [radii[-1:]])


@pytest.fixture(scope="module")
def seeded_graphs():
    """(graph, side, system) of gamma1 and gamma2 at 40 canonical Mach
    numbers in (0.25, 0.999) and on four random subsonic gases, and of
    sigma on the canonical and the stiff sonic far field."""
    systems = [_far_field(m)[0] for m in np.linspace(0.26, 0.998, 40)]
    rng = np.random.default_rng(20240817)
    systems += [random_system(rng, regime="subsonic") for _ in range(4)]
    cases = []
    for s in systems:
        graph = saddle_graph(s, eigen_2x2(s.matrix))
        cases += [(graph, -1.0, s), (graph, 1.0, s)]
    for gas, theta in ((GasParams(1.4, 1.0, 1.0, 1.0), 1.0),
                       (GasParams(1.4241, 5.5366, 6.3002, 0.10869), 0.3812)):
        s = build_system(gas, EndState(1.0, math.sqrt(gas.gamma * gas.R * theta), theta))
        cases.append((transonic_frame(s), -1.0, s))
    return cases


class TestGraphGrid:
    @pytest.mark.parametrize("opts", [TraceOptions(), SWEEP_TRACE], ids=["default", "sweep"])
    def test_certified_radii_are_the_per_radius_loop(self, seeded_graphs, opts):
        for graph, side, s in seeded_graphs:
            eps = 1e-6 * s.scale
            tol = opts.abs_tol + opts.rel_tol * s.scale
            radii = tracer._certified_radii(graph, side, eps, tol, s)
            assert np.array_equal(radii, _reference_radii(graph, side, eps, tol, s))

    def test_capped_is_linspace_per_segment(self, s_sub):
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        opts = TraceOptions()
        tol = opts.abs_tol + opts.rel_tol * s_sub.scale
        grid = tracer._certified_radii(graph, -1.0, 1e-6 * s_sub.scale, tol, s_sub)

        def capped(radii, cap):
            return capped_knots(radii, graph.points(-radii), cap)[0]

        # nothing inserted, a gamma1 grid at the trace's cap, hundreds
        # inserted into one segment, and a lone seed radius
        assert np.array_equal(capped(grid, 1.0), grid)
        wide = np.array([1e-3, 1e-2, 0.3])
        for radii, cap in ((grid, opts.sample_cap * s_sub.scale), (wide, 1e-3),
                           (grid[:1], 1e-3)):
            assert np.array_equal(capped(radii, cap),
                                  _reference_capped(graph, -1.0, radii, cap))
        assert capped(wide, 1e-3).size > 200

    def test_a_graph_segment_gets_at_most_max_inserted_radii(self, s_sub):
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        radii = np.array([1e-3, 0.3])
        pts = graph.points(-radii)
        assert np.max(np.abs(pts[1] - pts[0])) / 1e-6 > MAX_INSERTED
        knots, at, k = capped_knots(radii, pts, 1e-6)
        assert np.array_equal(knots, np.linspace(1e-3, 0.3, MAX_INSERTED + 2))
        assert np.array_equal(at, np.repeat([0, 1], [MAX_INSERTED + 1, 1]))
        assert np.array_equal(k, np.append(np.arange(MAX_INSERTED + 1), 0))


LADDER_U = (1.0, 0.3, SOUND, (1.0 - 1e-2) * SOUND, (1.0 - 1e-3) * SOUND)


def _reference_thin(samples, s, param_index, keep_radius, floor, noise):
    """The row loop ``tracer._thin`` replaced: numpy rows in, rows kept."""
    p_s1 = (s.u_plus, s.theta_plus)[param_index]
    vidx = 1 - param_index
    kept_s = [samples[0]]
    for i in range(1, len(samples) - 1):
        row = samples[i]
        adv_p = kept_s[-1][param_index] - row[param_index]
        adv_v = row[vidx] - kept_s[-1][vidx]
        if adv_p < -noise or adv_v < -noise:
            raise tracer.TraceFailed(
                f"sample {i} backtracks by more than the noise budget {noise:.1e}")
        near_s1 = abs(row[param_index] - p_s1) <= keep_radius
        wanted = adv_p >= floor or (near_s1 and adv_p > 0.0)
        if wanted and adv_p > 0.0 and adv_v > 0.0:
            kept_s.append(row)
    last = samples[-1]
    while len(kept_s) > 1 and (
            kept_s[-1][param_index] - last[param_index] <= 0.0
            or last[vidx] - kept_s[-1][vidx] <= 0.0):
        kept_s.pop()
    kept_s.append(last)
    return np.vstack(kept_s)


class TestThin:
    @pytest.mark.parametrize("opts", [TraceOptions(), SWEEP_TRACE], ids=["default", "sweep"])
    def test_thin_is_the_row_loop_on_the_ladder(self, gas, monkeypatch, opts):
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return thin(*args, **kwargs)

        thin = tracer._thin
        monkeypatch.setattr(tracer, "_thin", recording)
        for u_plus in LADDER_U:
            ExistenceEngine(opts).curves_for(gas, EndState(1.0, u_plus, 1.0))
        monkeypatch.undo()
        assert len(calls) == 9   # gamma1 and gamma2 on three rungs, sigma on two
        for (samples, *rest), kwargs in calls:
            got = tracer._thin(samples, *rest, **kwargs)
            want = _reference_thin(list(samples), *rest, **kwargs)
            assert np.array_equal(got, want)
            assert len(samples) > len(got) > 2

    def test_noise_budget_is_the_row_loop(self, s_sub):
        # u falls away from S1 as on gamma1, then backtracks by 1e-6 at
        # sample 3: past a 1e-7 noise budget, inside a 1e-5 one; at sample 4
        # theta backtracks by 5e-7 from the last kept sample, but not from S1
        samples = np.array([[1.0, 1.0], [0.99, 1.01], [0.98, 1.02], [0.980001, 1.03],
                            [0.97, 1.0199995], [0.96, 1.04]])
        args = (s_sub, 0, 1e-6, 1e-3)
        with pytest.raises(tracer.TraceFailed) as got:
            tracer._thin(samples, *args, noise=1e-7)
        with pytest.raises(tracer.TraceFailed) as want:
            _reference_thin(list(samples), *args, noise=1e-7)
        assert str(got.value) == str(want.value) and "sample 3" in str(got.value)
        got = tracer._thin(samples, *args, noise=1e-5)
        want = _reference_thin(list(samples), *args, noise=1e-5)
        assert np.array_equal(got, want)
        assert np.array_equal(got, samples[[0, 1, 2, 5]])


class TestGamma2EndsAtS2:
    # (1 - M+, fractions of S2's slow coordinate r_s2): each boundary is
    # within CAPTURE_RADIUS * scale of S2, where a branch stopped at S2's
    # capture point left it out of range
    CASES = [(3e-8, 0.9), (3e-8, 0.999), (2e-8, 0.9), (2e-8, 0.999),
             (1e-5, 0.9999), (1e-5, 0.99999)]

    @pytest.mark.parametrize("gap, frac", CASES)
    def test_a_boundary_next_to_s2_exists_on_gamma2(self, gas, gap, frac):
        right = EndState(1.0, (1.0 - gap) * SOUND, 1.0)
        eng = ExistenceEngine()
        c = eng.curves_for(gas, right)[CURVE_GAMMA2]
        s, graph = c.system, c.graph
        r_s2 = float((graph.P_inv @ (s.s2.as_array() - s.s1.as_array()))[1])
        u, theta = map(float, graph.points(frac * r_s2))
        q = Query(EndState(u * right.v / right.u, u, theta), right, gas)
        verdict = eng.decide(q)
        assert verdict.exists and verdict.curve == CURVE_GAMMA2, verdict
        assert c.terminal == TERMINAL_CONVERGED_TO_S2 and c.graph_radius == r_s2
        m = eng.compute_profile(q, verdict).metrics
        assert m["monotone_ok"] and m["signs"] == (-1, -1, 1)
        assert m["residual_sup"] <= 1e-8 and m["endpoint_gap"] <= 1e-8

    def test_terminal_point_is_the_last_sample(self, gas, monkeypatch):
        # bit for bit, and for an integrated curve also the stop's event point
        runs, curves = [], []

        def recording_integrate(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        def recording_trace(*args, **kwargs):
            runs.clear()
            c = trace(*args, **kwargs)
            end = [c.terminal_point.u.hex(), c.terminal_point.theta.hex()]
            assert end == [float(x).hex() for x in c.samples[-1]]
            if runs:
                ev = runs[-1].event.point
                assert end == [ev.u.hex(), ev.theta.hex()]
            curves.append(c)
            return c

        trace = tracer._trace
        monkeypatch.setattr(tracer, "integrate", recording_integrate)
        monkeypatch.setattr(tracer, "_trace", recording_trace)
        for u_plus in LADDER_U:
            ExistenceEngine().curves_for(gas, EndState(1.0, u_plus, 1.0))
        assert len(curves) == 9   # gamma1 and gamma2 on four rungs, sigma on one


def _probe_log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


# the random far fields of the membership probe: gamma uniform, R, mu and
# theta+ log-uniform in [0.2, 5], kappa log-uniform in [0.05, 20], v+ = 1,
# and M+ uniform below 0.99 or 1 - 10^x with x in [-6, -2]
_probe_gases = st.builds(GasParams, gamma=st.floats(1.05, 1.9),
                         R=_probe_log_uniform(0.2, 5.0), mu=_probe_log_uniform(0.2, 5.0),
                         kappa=_probe_log_uniform(0.05, 20.0))
_probe_machs = st.one_of(st.floats(0.05, 0.99),
                         st.floats(-6.0, -2.0).map(lambda x: 1.0 - 10.0 ** x))
_BOUNDARY_ANGLES = 2.0 * math.pi * np.arange(64) / 64


class TestS2Basin:
    """The certified set around S2 at which the sweep's gamma2 stops."""

    @settings(max_examples=40)
    @given(gas=_probe_gases, theta=_probe_log_uniform(0.2, 5.0), mach=_probe_machs)
    # S2 just above the theta axis (alpha2 = 0.011), where the cut to the
    # quadrant sets the level
    @example(gas=GasParams(1.4, 1.0, 1.0, 1.0), theta=1.0, mach=0.38)
    def test_the_set_is_certified(self, gas, theta, mach):
        s = build_system(gas, EndState(1.0, mach * math.sqrt(gas.R * gas.gamma * theta),
                                       theta))
        assume(s.alpha2 > 0.0)
        basin = s2_basin(s)
        assert basin is not None
        (u2, th2), (p00, p01, p11), level = basin
        ev = basin.event()
        # it contains S2 and excludes S1
        assert level > 0.0 and ev.fn(0.0, [u2, th2]) < 0.0
        assert ev.fn(0.0, [s.u_plus, s.theta_plus]) > 0.0
        # its extents along u and theta stop short of the axes
        det = p00 * p11 - p01 * p01
        assert math.sqrt(level * p11 / det) < u2 and math.sqrt(level * p00 / det) < th2
        # V = x^T P x decreases along the backward field on its boundary
        e = np.stack([np.cos(_BOUNDARY_ANGLES), np.sin(_BOUNDARY_ANGLES)])
        x = e * np.sqrt(level / (p00 * e[0] ** 2 + 2.0 * p01 * e[0] * e[1] + p11 * e[1] ** 2))
        pts = np.array([[u2], [th2]]) + x
        assert np.all(pts > 0.0)
        fu, fth = field_poly(pts[0], pts[1], s)
        v_dot = -2.0 * ((p00 * x[0] + p01 * x[1]) * fu + (p01 * x[0] + p11 * x[1]) * fth)
        assert np.all(v_dot < 0.0)
        # and a backward run from its boundary is captured by S2, at the
        # default trace tolerance, whose noise stays below the capture
        # radius; near Mach 1 the node is as stiff as 1 / (1 - M+), and the
        # runs are left out
        if mach > 0.99:
            return
        events = [theta_crosses_zero(), near_equilibrium(s.s2, CAPTURE_RADIUS * s.scale)]
        for p in pts.T[::8]:
            res = integrate(phase_field(s), p, TraceOptions().integration_settings(), events)
            assert res.event.kind == NEAR_EQUILIBRIUM

    def test_none_without_s2_in_the_quadrant(self, gas, right_subcase_b):
        # alpha2 < 0: S2 lies below the theta axis
        assert s2_basin(build_system(gas, right_subcase_b)) is None

    @pytest.mark.parametrize("gas_params, machs", [
        ((1.4, 1.0, 1.0, 1.0), np.linspace(0.25, 1.25, 200)),
        ((1.2728, 4.2983, 3.5278, 0.1), np.linspace(0.4, 0.95, 6)),
    ], ids=["acceptance-grid", "stiff"])
    def test_sweep_terminal_is_the_full_traces(self, gas_params, machs):
        gas = GasParams(*gas_params)
        rows = run_sweep(gas, 1.0, 1.0, machs.tolist())
        sound = math.sqrt(gas.R * gas.gamma)
        subsonic = [r for r in rows if r["regime"] == "subsonic"]
        assert subsonic
        for row in subsonic:
            s = build_system(gas, EndState(1.0, row["mach_plus"] * sound, 1.0))
            full = trace_gamma(s, saddle_graph(s, eigen_2x2(s.matrix)), CURVE_GAMMA2,
                               SWEEP_TRACE)
            assert row["gamma2_terminal"] == full.terminal, row["mach_plus"]

    def test_the_sweep_answers_where_its_full_trace_stalls(self):
        # S2 lies at u = 2.4 > scale, where SWEEP_TRACE's error noise near S2
        # (rel_tol |u|) exceeds the capture radius: the full trace hovers at
        # about 1.5e-8 of S2 until its budget, while the basin stop and the
        # default trace agree on the terminal
        gas = GasParams(1.5, 1.0046157902783952, 0.238592024994101, 9.843025249911998)
        mach = 0.42784268952472265
        (row,) = run_sweep(gas, 1.0, 1.0, [mach])
        s = build_system(gas, EndState(1.0, mach * math.sqrt(gas.R * gas.gamma), 1.0))
        full = trace_gamma(s, saddle_graph(s, eigen_2x2(s.matrix)), CURVE_GAMMA2)
        assert row["gamma2_terminal"] == full.terminal == TERMINAL_CONVERGED_TO_S2

    def test_the_sweeps_gamma2_takes_fewer_steps(self, s_sub, monkeypatch):
        counted = _CountedIntegrate()
        monkeypatch.setattr(tracer, "integrate", counted)
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        full = trace_gamma(s_sub, graph, CURVE_GAMMA2, SWEEP_TRACE)
        short = trace_gamma2_to_basin(s_sub, graph, SWEEP_TRACE)
        assert full.terminal == short.terminal == TERMINAL_CONVERGED_TO_S2
        assert len(counted.steps) == 2 and counted.steps[1] < counted.steps[0]
        # the stop's curve is a prefix of the full one, but for its last sample
        n = len(short.samples) - 1
        assert np.array_equal(short.samples[:n], full.samples[:n])
