import dataclasses
import math
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from inflow_layer import (EndState, ExistenceEngine, GasParams, InvalidBoundary, NonFinite,
                          Profile, ProfileDiverged, Query, TailTooShort,
                          Tolerances, TraceFailed, classify_regime, trace_gamma,
                          verdict_to_dict, verify_decay, verify_residual)
from inflow_layer import engine as engine_module
from inflow_layer import linearize as linearize_module
from inflow_layer import tracer as tracer_module
from inflow_layer.gas import TOL_MACH
from inflow_layer.engine import (CURVE_TRIVIAL, REASON_MASS_FLUX,
                                 REASON_NONPOSITIVE_U_PLUS, REASON_OFF_CURVE,
                                 REASON_OUT_OF_RANGE, REASON_SUPERSONIC,
                                 REASON_TRUNCATED)
from inflow_layer.integrator import component_crosses, integrate
from inflow_layer.linearize import SlowGraph
from inflow_layer.system import PhasePoint, _residual_pair, build_system, phase_field
from inflow_layer.tracer import TERMINAL_BUDGET, TraceOptions, curve_membership


def _left_for(curve, i, right):
    """Boundary state on a stored curve sample with the flux identity built in."""
    u_b = float(curve.samples[i, 0])
    th_b = float(curve.samples[i, 1])
    return EndState(u_b * right.v / right.u, u_b, th_b)


def _left_at(curve, u_b, right):
    """Flux-compatible boundary state on a u-parameterized curve at u = u_b."""
    return EndState(u_b * right.v / right.u, u_b, curve.predict(u_b))


class TestDecide:
    def test_trivial_any_regime(self, engine, gas, right_subsonic, right_supersonic):
        for right in (right_subsonic, right_supersonic):
            q = Query(EndState(right.v, right.u, right.theta), right, gas)
            v = engine.decide(q)
            assert v.exists and v.curve == CURVE_TRIVIAL
            assert v.notes

    def test_supersonic_never_exists(self, engine, gas, right_supersonic):
        left = EndState(0.5, 1.0, 1.3)  # flux 1/0.5 = 2 = u+/v+
        q = Query(left, right_supersonic, gas)
        v = engine.decide(q)
        assert not v.exists and v.reason == REASON_SUPERSONIC

    def test_nonpositive_far_velocity(self, engine, gas):
        q = Query(EndState(1.0, 1.0, 1.0), EndState(1.0, -0.2, 1.0), gas)
        v = engine.decide(q)
        assert not v.exists and v.reason == REASON_NONPOSITIVE_U_PLUS

    def test_flux_mismatch(self, engine, gas, right_subsonic):
        q = Query(EndState(1.0, 0.7, 1.2), right_subsonic, gas)
        v = engine.decide(q)
        assert not v.exists and v.reason == REASON_MASS_FLUX
        assert v.flux_gap == pytest.approx(0.3, rel=1e-12)

    def test_gamma1_sample_round_trip(self, engine, gas, right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        v = engine.decide(q)
        assert v.exists and v.curve == "gamma1"
        assert v.curve_parameter == pytest.approx(q.left.u)

    def test_gamma2_sample_round_trip(self, engine, gas, right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma2"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        v = engine.decide(q)
        assert v.exists and v.curve == "gamma2"

    def test_sigma_sample_round_trip(self, engine, gas, right_transonic, transonic_curves):
        c = transonic_curves["sigma"]
        q = Query(_left_for(c, len(c.samples) // 2, right_transonic), right_transonic, gas)
        v = engine.decide(q)
        assert v.exists and v.curve == "sigma"

    @pytest.mark.parametrize("case,label", [("transonic", "sigma"),
                                            ("subsonic", "gamma1"),
                                            ("subsonic", "gamma2")],
                             ids=["sigma", "gamma1", "gamma2"])
    def test_gap_zone_point_exists(self, request, engine, gas, case, label):
        # between S1 and the first seeded sample a curve is read off its
        # manifold graph, so a point on that graph is a point on the curve
        right = request.getfixturevalue(f"right_{case}")
        c = request.getfixturevalue(f"{case}_curves")[label]
        pidx = c.param_index
        s1 = c.samples[0]
        d = 0.5 * (c.samples[1, pidx] - s1[pidx])
        point = c.graph.points(c.graph.w_at(pidx, d))
        assert 0.0 < (point - s1)[pidx] / (c.samples[1] - s1)[pidx] < 1.0
        u_b, th_b = (float(x) for x in point)
        assert c.predict(float(point[pidx])) == pytest.approx(float(point[1 - pidx]),
                                                              rel=0.0, abs=1e-15)
        q = Query(EndState(u_b * right.v / right.u, u_b, th_b), right, gas)
        v = engine.decide(q)
        assert v.exists and v.curve == label
        assert v.curve_parameter == float(point[pidx])

    def test_perturbed_theta_off_curve(self, engine, gas, right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma1"]
        base = _left_for(c, len(c.samples) // 2, right_subsonic)
        left = EndState(base.v, base.u, base.theta + 0.05)
        v = engine.decide(Query(left, right_subsonic, gas))
        assert not v.exists and v.reason == REASON_OFF_CURVE
        assert v.nearest_curve == "gamma1"
        assert v.distance == pytest.approx(0.05, rel=1e-4)

    def test_off_curve_distance_monotone_in_perturbation(self, engine, gas,
                                                         right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma1"]
        base = _left_for(c, len(c.samples) // 2, right_subsonic)
        dists = []
        for mag in (0.01, 0.02, 0.04):
            left = EndState(base.v, base.u, base.theta + mag)
            v = engine.decide(Query(left, right_subsonic, gas))
            assert v.reason == REASON_OFF_CURVE
            dists.append(abs(v.distance))
        assert dists[0] < dists[1] < dists[2]

    def test_outside_curve_range(self, engine, gas, right_subsonic):
        # u- above u+ with theta- above theta+: beyond both parameter spans
        left = EndState(1.6, 1.6, 1.4)
        v = engine.decide(Query(left, right_subsonic, gas))
        assert not v.exists and v.reason == REASON_OUT_OF_RANGE

    def test_rejects_outflow_boundary(self, gas, right_subsonic):
        with pytest.raises(InvalidBoundary):
            Query(EndState(1.0, -1.0, 1.0), right_subsonic, gas)

    def test_depends_only_on_flux_ratio_representation(self, engine, gas,
                                                       right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma1"]
        i = len(c.samples) // 2
        u_b = float(c.samples[i, 0])
        th_b = float(c.samples[i, 1])
        v1 = engine.decide(Query(EndState(u_b, u_b, th_b), right_subsonic, gas))
        v_alt = (u_b * 7.0) / 7.0
        v2 = engine.decide(Query(EndState(v_alt, u_b, th_b), right_subsonic, gas))
        assert v1 == v2

    def test_curve_cache_is_shared(self, engine, gas, right_subsonic):
        a = engine.curves_for(gas, right_subsonic)
        b = engine.curves_for(gas, right_subsonic)
        assert a is b

    def test_cache_keyed_on_regime(self, gas):
        # the same far field is sonic under tol_M = 1e-2 and subsonic under
        # 1e-3; the sigma-only cache entry must not answer the subsonic query
        u_plus = (1.0 - 5e-3) * math.sqrt(1.4)
        right = EndState(1.0, u_plus, 1.0)
        eng = ExistenceEngine()
        assert sorted(eng.curves_for(gas, right, tol_M=1e-2)) == ["sigma"]
        left = EndState(0.5 / u_plus, 0.5, 1.2)
        v = eng.decide(Query(left, right, gas, Tolerances(tol_M=1e-3)))
        assert v.regime.is_subsonic
        assert v == ExistenceEngine().decide(Query(left, right, gas,
                                                   Tolerances(tol_M=1e-3)))
        assert v.reason == REASON_OFF_CURVE

    def test_truncated_curve_has_own_reason(self, engine, gas, right_transonic,
                                            transonic_curves):
        # five steps leave sigma at u in [1.18202, 1.18322]; a boundary point
        # beyond its far end is unanswered, not outside the curve
        q = Query(_left_at(transonic_curves["sigma"], 0.5 * right_transonic.u,
                           right_transonic), right_transonic, gas)
        assert engine.decide(q).curve == "sigma"
        short = ExistenceEngine(TraceOptions(max_steps=5))
        assert short.curves_for(gas, right_transonic)["sigma"].terminal == TERMINAL_BUDGET
        v = short.decide(q)
        assert not v.exists and v.reason == REASON_TRUNCATED
        # beyond S1 the truncation does not matter
        u_b = 1.05 * right_transonic.u
        beyond = EndState(u_b * right_transonic.v / right_transonic.u, u_b, 1.05)
        assert short.decide(Query(beyond, right_transonic, gas)).reason == REASON_OUT_OF_RANGE

    @pytest.mark.parametrize("bad", [{"tol_A": -1.0}, {"tol_A": 0.0},
                                     {"tol_A": math.inf}, {"tol_member": -1.0},
                                     {"tol_member": math.nan}, {"tol_M": 0.6},
                                     {"tol_M": 0.0}, {"tol_M": math.nan}])
    def test_invalid_tolerances_rejected(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)

    def test_verdict_serialization(self, engine, gas, right_subsonic):
        q = Query(EndState(1.0, 1.0, 1.0), right_subsonic, gas)
        d = verdict_to_dict(engine.decide(q))
        assert d["outcome"] == "exists"
        assert d["regime"] == "subsonic"
        assert isinstance(d["notes"], list)


class TestProfiles:
    def test_trivial_profile(self, engine, gas, right_subsonic):
        q = Query(EndState(1.0, 1.0, 1.0), right_subsonic, gas)
        prof = engine.compute_profile(q)
        assert prof.trivial
        assert prof.metrics["residual_sup"] == 0.0
        assert prof.metrics["decay"].kind == "not_applicable"
        assert prof.xi[0] == 0.0

    @pytest.mark.parametrize("label,signs", [("gamma1", (1, 1, -1)),
                                             ("gamma2", (-1, -1, 1))])
    def test_subsonic_profiles(self, engine, gas, right_subsonic, subsonic_curves,
                               label, signs):
        c = subsonic_curves[label]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        assert prof.xi[0] == 0.0
        assert prof.metrics["endpoint_gap"] <= 1e-8
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["signs"] == signs
        assert prof.metrics["residual_sup"] <= 1e-8
        assert np.allclose(prof.V, (right_subsonic.v / right_subsonic.u) * prof.U,
                           rtol=1e-12)
        assert prof.U[0] == pytest.approx(q.left.u, abs=1e-9)

    def test_transonic_profile(self, engine, gas, right_transonic, transonic_curves):
        c = transonic_curves["sigma"]
        q = Query(_left_for(c, len(c.samples) // 2, right_transonic), right_transonic, gas)
        prof = engine.compute_profile(q)
        assert prof.metrics["endpoint_gap"] <= 1e-8
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["signs"] == (1, 1, -1)
        assert prof.metrics["residual_sup"] <= 1e-8

    def test_transonic_profile_inside_handoff(self, engine, gas, right_transonic,
                                              transonic_curves):
        # u+ - u- = 5e-4 u+ lies inside sigma's graph radius (0.1 scale):
        # the whole profile comes from the quadrature leg
        q = Query(_left_at(transonic_curves["sigma"], 0.9995 * right_transonic.u,
                           right_transonic), right_transonic, gas)
        prof = engine.compute_profile(q)
        # every residual row is an inner-leg sample: there is no outer leg
        assert prof.curve == "sigma"
        samples = np.column_stack([prof.U, prof.Theta])
        assert np.array_equal(prof.residual_rows[:, :2], samples[1:])
        assert prof.metrics["residual_sup"] <= 1e-8
        assert prof.metrics["endpoint_gap"] <= 1e-8
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["decay"].exponent == pytest.approx(-1.0, abs=0.1)

    @pytest.mark.parametrize("regime", ["transonic", "subsonic"])
    def test_boundary_at_s1_gives_trivial_profile(self, engine, gas, right_transonic,
                                                  transonic_curves, right_subsonic,
                                                  subsonic_curves, regime):
        # u+ - u- = 5e-11 u+ lies inside the profiles' start offset from S1;
        # the sonic quadrature leg used to walk away from S1 to xi ~ -7e9
        right, c = ((right_transonic, transonic_curves["sigma"]) if regime == "transonic"
                    else (right_subsonic, subsonic_curves["gamma1"]))
        q = Query(_left_at(c, (1.0 - 5e-11) * right.u, right), right, gas)
        verdict = engine.decide(q)
        assert verdict.exists and verdict.curve == c.label
        prof = engine.compute_profile(q, verdict)
        assert prof.trivial and list(prof.xi) == [0.0, 1.0]
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["residual_sup"] == 0.0
        # the constant state is the boundary's, which is not S1
        gap = max(abs(q.left.u - right.u), abs(q.left.theta - right.theta))
        assert gap >= 5e-11 * right.u * (1.0 - 1e-6)
        assert prof.metrics["endpoint_gap"] == gap

    def test_profile_requires_existing_layer(self, engine, gas, right_supersonic):
        q = Query(EndState(0.5, 1.0, 1.3), right_supersonic, gas)
        with pytest.raises(ProfileDiverged):
            engine.compute_profile(q)


def _exact_line(x, y) -> tuple[float, float]:
    """The least-squares line of the float rows, solved in rationals and
    rounded once: (slope, intercept)."""
    xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys))
             / sum((a - x_mean) ** 2 for a in xs))
    return float(slope), float(y_mean - slope * x_mean)


class TestVerifyDecay:
    def test_subsonic_rate_matches_eigenvalue(self, engine, gas, right_subsonic,
                                              subsonic_curves):
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        report = prof.metrics["decay"]
        assert report.kind == "exponential"
        assert report.rate == pytest.approx(0.3507810593582122, rel=0.05)
        assert report.rate_theta == pytest.approx(0.3507810593582122, rel=0.05)
        assert report.amplitude > 0.0

    def test_transonic_algebraic_tail(self, engine, gas, right_transonic,
                                      transonic_curves):
        c = transonic_curves["sigma"]
        q = Query(_left_for(c, len(c.samples) // 2, right_transonic), right_transonic, gas)
        prof = engine.compute_profile(q)
        report = prof.metrics["decay"]
        assert report.kind == "algebraic"
        assert report.exponent == pytest.approx(-1.0, abs=0.1)
        assert report.inv_coeff == pytest.approx(13.0 / 14.0, rel=0.1)
        assert report.exponent_d1 == pytest.approx(-2.0, abs=0.2)

    @pytest.mark.parametrize("case,label", [("subsonic", "gamma1"), ("subsonic", "gamma2"),
                                            ("transonic", "sigma")])
    def test_line_fit_equals_polyfit_on_the_window_rows(self, request, engine, gas,
                                                        monkeypatch, case, label):
        # np.polyfit, an SVD least-squares solve, and the exact line of the
        # rows in rationals are the references for the closed-form line of
        # each decay fit, on the rows that fit is given
        right = request.getfixturevalue(f"right_{case}")
        c = request.getfixturevalue(f"{case}_curves")[label]
        prof = engine.compute_profile(
            Query(_left_for(c, len(c.samples) // 2, right), right, gas))
        line_fit, calls = engine_module._line_fit, []

        def recorded(x, y):
            calls.append((x, y))
            return line_fit(x, y)

        monkeypatch.setattr(engine_module, "_line_fit", recorded)
        verify_decay(prof, classify_regime(prof.system.mach_plus))
        assert len(calls) == 2
        for x, y in calls:
            assert len(x) >= engine_module.TAIL_MIN
            slope, intercept = line_fit(x, y)
            exact_slope, exact_intercept = _exact_line(x, y)
            assert abs(slope - exact_slope) <= 1e-13 * abs(exact_slope)
            assert abs(intercept - exact_intercept) <= 1e-13 * abs(exact_intercept)
            ref_slope, ref_intercept = np.polyfit(x, y, 1)
            assert abs(slope - ref_slope) <= 1e-13 * abs(ref_slope)
            # the sonic lines' intercepts (which no report uses) are what is
            # left of mean(y) - slope mean(x) after cancellation, where
            # polyfit is up to 6e-13 off the exact line
            scale = abs(ref_intercept) + abs(ref_slope * x.mean())
            assert abs(intercept - ref_intercept) <= 1e-13 * scale

    def test_tail_too_short(self, engine, gas, right_subsonic, subsonic_curves):
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        stub = Profile(xi=prof.xi[:10], V=prof.V[:10], U=prof.U[:10],
                       Theta=prof.Theta[:10], trivial=False, curve=prof.curve,
                       system=prof.system)
        with pytest.raises(TailTooShort):
            verify_decay(stub, classify_regime(prof.system.mach_plus))


class TestRandomParameterRoundTrip:
    def test_decide_profile_decay_on_random_systems(self, rng):
        from conftest import random_system
        from inflow_layer import EndState, ExistenceEngine, eigen_2x2, transonic_frame

        eng = ExistenceEngine()
        for k in range(4):
            regime = "subsonic" if k % 2 == 0 else "transonic"
            s = random_system(rng, regime=regime)
            right = EndState(s.v_plus, s.u_plus, s.theta_plus)
            curves = eng.curves_for(s.gas, right)
            for label, c in curves.items():
                i = len(c.samples) // 2
                u_b, th_b = float(c.samples[i, 0]), float(c.samples[i, 1])
                q = Query(EndState(u_b * right.v / right.u, u_b, th_b), right, s.gas)
                verdict = eng.decide(q)
                assert verdict.exists and verdict.curve == label
                prof = eng.compute_profile(q, verdict)
                assert prof.metrics["monotone_ok"]
                assert prof.metrics["endpoint_gap"] <= 1e-8 * s.scale
                assert prof.metrics["residual_sup"] <= 1e-8
                rep = prof.metrics["decay"]
                if regime == "subsonic":
                    lam2 = eigen_2x2(s.matrix).lambda2
                    assert rep.rate == pytest.approx(abs(lam2), rel=0.05)
                else:
                    a2 = transonic_frame(s).flow[2]
                    assert rep.inv_coeff == pytest.approx(1.0 / a2, rel=0.1)
                    assert rep.exponent == pytest.approx(-1.0, abs=0.1)


class TestVerifyResidual:
    def test_corrupted_profile_detected(self, engine, gas, right_subsonic,
                                        subsonic_curves):
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        bad = Profile(xi=prof.xi, V=prof.V, U=prof.U, Theta=prof.Theta * 1.01,
                      trivial=False, curve=prof.curve, system=prof.system,
                      residual_rows=prof.residual_rows * [1.0, 1.01, 1.0, 1.01])
        assert verify_residual(bad, prof.system) > 1e-3

    def test_profile_without_rows_gives_inf(self, engine, gas, right_subsonic,
                                            subsonic_curves):
        # rows come only from the legs that computed the profile; one built
        # from bare samples has none and fails every bound
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        assert verify_residual(prof, prof.system) < 1e-8
        bare = Profile(xi=prof.xi, V=prof.V, U=prof.U, Theta=prof.Theta,
                       trivial=False, curve=prof.curve, system=prof.system)
        assert bare.residual_rows.shape == (0, 4)
        assert verify_residual(bare, prof.system) == math.inf

    @pytest.mark.parametrize("corrupt", ["one_nan", "all_nan", "two_samples"])
    def test_unusable_rows_give_inf(self, engine, gas, right_subsonic, subsonic_curves,
                                    corrupt):
        # a NaN row, or no row at all, must fail every bound: Python's
        # max(worst, nan) kept worst, and an empty set of rows read 0.0
        c = subsonic_curves["gamma1"]
        q = Query(_left_for(c, len(c.samples) // 2, right_subsonic), right_subsonic, gas)
        prof = engine.compute_profile(q)
        xi, U, Theta = prof.xi, prof.U, prof.Theta
        rows = prof.residual_rows.copy()
        if corrupt == "one_nan":
            rows[len(rows) // 2, 1] = np.nan
        elif corrupt == "all_nan":
            rows[:, 1] = np.nan
        else:
            xi, U, Theta, rows = xi[:2], U[:2], Theta[:2], rows[:0]
        bad = Profile(xi=xi, V=(prof.V[0] / prof.U[0]) * U, U=U, Theta=Theta,
                      trivial=False, curve=prof.curve, system=prof.system,
                      residual_rows=rows)
        assert verify_residual(bad, prof.system) == math.inf

    def test_nonfinite_engine_row_gives_inf(self, engine, gas, right_transonic,
                                            transonic_curves):
        c = transonic_curves["sigma"]
        q = Query(_left_for(c, len(c.samples) // 2, right_transonic), right_transonic, gas)
        prof = engine.compute_profile(q)
        prof.residual_rows[-1, 3] = np.inf
        assert verify_residual(prof, prof.system) == math.inf


LEG_CASES = [("subsonic", "gamma1"), ("subsonic", "gamma2"),
             ("subcase_b", "gamma2"), ("transonic", "sigma")]


def _leg_by_integrate(q, curve):
    """The profile's backward leg as one ``integrate`` call makes it: from
    the curve's graph point at its graph radius to the boundary parameter;
    None for a boundary inside that radius, which takes no leg."""
    s = build_system(q.gas, q.right)
    graph, pidx = curve.graph, curve.param_index
    p_s1, bparam = (s.u_plus, s.theta_plus)[pidx], (q.left.u, q.left.theta)[pidx]
    edge = graph.points(math.copysign(curve.graph_radius,
                                      (bparam - p_s1) / graph.e_slow[pidx]))
    if abs(bparam - p_s1) <= abs(edge[pidx] - p_s1):
        return None
    return integrate(phase_field(s), edge, tracer_module._LEG_SETTINGS,
                     events=[component_crosses(pidx, bparam)])


def _profile_and_leg(request, engine, gas, case, label):
    """A mid-curve profile on the shared engine and its backward leg made by
    ``integrate`` alone."""
    right = request.getfixturevalue(f"right_{case}")
    curve = request.getfixturevalue(f"{case}_curves")[label]
    q = Query(_left_for(curve, len(curve.samples) // 2, right), right, gas)
    prof = engine.compute_profile(q)
    assert prof.curve == label
    return prof, _leg_by_integrate(q, curve)


def _orbit_steps(eng) -> list[int]:
    """The steps each profile orbit of the engine's cached curves has
    stored, for every orbit whose run has been made."""
    return [c.orbit.run.n_steps for entry in eng._cache.values()
            for c in entry.curves.values() if c.orbit.run is not None]


@pytest.mark.parametrize("case,label", LEG_CASES)
def test_dense_with_slopes_equals_each_step(request, engine, gas, case, label):
    _, res = _profile_and_leg(request, engine, gas, case, label)
    steps = res.steps
    assert res.n_steps > 50
    for frac in (0.0, 0.5, 0.9, 1.0):
        t = steps.t[:-1] + frac * steps.h
        y, dy = steps.dense(t, np.arange(res.n_steps), slopes=True)
        for i, ti in enumerate(t):
            assert y[i].tobytes() == steps.values(i, [ti])[0].tobytes(), (frac, i)
            # the derivative of step i's quartic, evaluated for that step alone
            x = (ti - steps.t[i]) / steps.h[i]
            k = np.arange(steps.Q.shape[2])
            assert dy[i].tobytes() == (steps.Q[i] @ ((k + 1) * x ** k)).tobytes(), (frac, i)


@pytest.mark.parametrize("case,label", LEG_CASES)
def test_array_residual_equals_scalar_loop(request, engine, gas, case, label):
    prof, res = _profile_and_leg(request, engine, gas, case, label)
    s = prof.system
    # the leg's rows come first, one per step part inside [t_event, 0] that is
    # at least 1e-5 long, at its midpoint; the inner leg adds one row per
    # sample along the graph
    dom_lo, dom_hi = min(res.event.xi, 0.0), max(res.event.xi, 0.0)
    kept, steps = [], res.steps
    for i in range(res.n_steps):
        a, b = sorted((steps.t[i], steps.t[i + 1]))
        a, b = max(a, dom_lo), min(b, dom_hi)
        if b - a >= 1e-5:
            kept.append((i, 0.5 * (a + b)))
    assert len(prof.residual_rows) == len(kept) + len(prof.xi) - len(res.xi)
    for row, (i, t_mid) in zip(prof.residual_rows, kept):
        assert row[:2].tobytes() == steps.values(i, [t_mid])[0].tobytes()
    # the scalar loop the array evaluation replaced, on Python floats
    scale = max(abs(s.sigma_minus) * s.u_plus, s.p_plus * s.u_plus)
    worst = 0.0
    for u, theta, du_dxi, dth_dxi in prof.residual_rows.tolist():
        r1, r2, loc1, loc2 = _residual_pair(s, u, theta, du_dxi, dth_dxi)
        worst = max(worst, abs(r1) / max(scale, loc1), abs(r2) / max(scale, loc2))
    got = verify_residual(prof, s)
    assert type(got) is float and got.hex() == worst.hex()
    assert got == prof.metrics["residual_sup"] <= 1e-8


@pytest.mark.parametrize("gap", [1e-3, 1e-5])
@pytest.mark.parametrize("label", ["gamma1", "gamma2"])
def test_near_sonic_profile_rides_the_graph(gas, gap, label):
    # the slow tail decays at |lambda2| ~ 1 - M+; an integrator leg from
    # S1 crawled there and ran out of its step budget at 1 - M+ = 1e-5
    right = EndState(1.0, (1.0 - gap) * math.sqrt(1.4), 1.0)
    eng = ExistenceEngine()
    c = eng.curves_for(gas, right)[label]
    prof = eng.compute_profile(Query(_left_for(c, len(c.samples) // 2, right), right, gas))
    assert prof.metrics["residual_sup"] <= 1e-8
    assert prof.metrics["monotone_ok"]
    assert prof.metrics["endpoint_gap"] <= 1e-8
    assert sum(_orbit_steps(eng)) <= 1000


def test_profile_far_beyond_the_graph_radius():
    # the graph polynomial is meaningless far beyond its radius: here the
    # boundary's u - u+ = -0.6 is also reached at w = +5.04, on gamma2's
    # side, so the outer leg is decided on the parameter, not on w_at
    k = 1.0757796162975648
    gas = GasParams(2.00001, k, k, k)
    right = EndState(k, 1.521384405557168, k)
    left = EndState(0.6533475853717337, 0.9239744021307462, 1.4726395371858751)
    eng = ExistenceEngine()
    c = eng.curves_for(gas, right)["gamma1"]
    assert c.graph.w_at(0, left.u - right.u) > c.graph_radius
    prof = eng.compute_profile(Query(left, right, gas))
    assert prof.curve == "gamma1"
    assert prof.metrics["residual_sup"] <= 1e-8
    assert prof.metrics["monotone_ok"]
    assert prof.metrics["endpoint_gap"] <= 1e-8


def test_gamma_branches_share_one_graph(gas, graph_builds):
    # gamma1 and gamma2 are the two branches of S1's one stable manifold
    curves = ExistenceEngine().curves_for(gas, EndState(1.0, 0.9, 1.0))
    assert len(graph_builds) == 1
    assert curves["gamma1"].graph is curves["gamma2"].graph


class _CountedTrace:
    """Stands in for the engine's ``trace_gamma``: counts the traces of
    each far field and holds each one long enough for callers to overlap."""

    def __init__(self, delay: float = 0.05):
        self.delay = delay
        self.lock = threading.Lock()
        self.counts: dict = {}

    def __call__(self, s, graph, branch, opts=None):
        with self.lock:
            key = (s.u_plus, branch)
            self.counts[key] = self.counts.get(key, 0) + 1
        time.sleep(self.delay)
        return trace_gamma(s, graph, branch, opts)


class TestCurveCache:
    def test_concurrent_callers_trace_a_key_once(self, gas, monkeypatch):
        counted = _CountedTrace()
        monkeypatch.setattr(engine_module, "trace_gamma", counted)
        eng = ExistenceEngine()
        rights = [EndState(1.0, u, 1.0) for u in (0.8, 0.9)]
        n_threads = 6                      # more callers than cores
        barrier = threading.Barrier(n_threads)
        results, errors = [], []

        def caller(i):
            try:
                barrier.wait(timeout=10)
                results.append((i % 2, eng.curves_for(gas, rights[i % 2])))
            except Exception as exc:     # reported by the assertions below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and len(results) == n_threads
        # one trace per far field and branch, and every caller got that one
        assert sorted(counted.counts.values()) == [1, 1, 1, 1]
        for k in (0, 1):
            firsts = [curves for j, curves in results if j == k]
            assert all(curves is firsts[0] for curves in firsts)

    def test_a_failed_trace_is_not_cached(self, gas, monkeypatch):
        calls = []

        def failing(s, graph, branch, opts=None):
            calls.append(branch)
            raise TraceFailed("injected")

        monkeypatch.setattr(engine_module, "trace_gamma", failing)
        eng = ExistenceEngine()
        right = EndState(1.0, 0.9, 1.0)
        for _ in range(2):
            with pytest.raises(TraceFailed):
                eng.curves_for(gas, right)
        assert len(calls) == 2
        monkeypatch.setattr(engine_module, "trace_gamma", trace_gamma)
        assert sorted(eng.curves_for(gas, right)) == ["gamma1", "gamma2"]

    def test_concurrent_callers_share_a_failed_trace(self, gas, monkeypatch):
        # callers waiting on a trace that raises get its error, not a trace
        # of their own each; the next caller after them traces again
        calls = []

        def failing(s, graph, branch, opts=None):
            calls.append(branch)
            time.sleep(0.2)                # long enough for every caller to wait
            raise TraceFailed("injected")

        monkeypatch.setattr(engine_module, "trace_gamma", failing)
        eng = ExistenceEngine()
        right = EndState(1.0, 0.9, 1.0)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        errors = []

        def caller():
            barrier.wait(timeout=10)
            try:
                eng.curves_for(gas, right)
            except TraceFailed as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        assert len(errors) == n_threads and len(calls) == 1
        assert eng._cache == {}
        with pytest.raises(TraceFailed):
            eng.curves_for(gas, right)
        assert len(calls) == 2

    def test_eviction_keeps_answers_independent_of_history(self, gas, monkeypatch):
        monkeypatch.setattr(engine_module, "CURVE_CACHE_SIZE", 2)
        counted = _CountedTrace(delay=0.0)
        monkeypatch.setattr(engine_module, "trace_gamma", counted)
        rights = [EndState(1.0, u, 1.0) for u in (0.7, 0.8, 0.9)]
        queries = []
        for right in rights:
            g1 = ExistenceEngine().curves_for(gas, right)["gamma1"]
            queries.append(Query(_left_for(g1, len(g1.samples) // 2, right), right, gas))
            queries.append(Query(EndState(0.5 / right.u, 0.5, 1.2), right, gas))
        fresh = [verdict_to_dict(ExistenceEngine().decide(q)) for q in queries]
        eng = ExistenceEngine()
        counted.counts.clear()
        # forward, backward and forward again through three far fields with
        # room for two: the ends are evicted and traced again, the middle not
        answers = [verdict_to_dict(eng.decide(q)) for q in queries + queries[::-1] + queries]
        assert answers == fresh + fresh[::-1] + fresh
        assert len(eng._cache) == 2
        assert {u: counted.counts[(u, "gamma1")] for u in (0.7, 0.8, 0.9)} == \
            {0.7: 2, 0.8: 1, 0.9: 2}

    def test_a_hit_refreshes_the_key(self, gas, monkeypatch):
        monkeypatch.setattr(engine_module, "CURVE_CACHE_SIZE", 2)
        eng = ExistenceEngine()
        a, b, c = (EndState(1.0, u, 1.0) for u in (0.7, 0.8, 0.9))
        first = eng.curves_for(gas, a)
        eng.curves_for(gas, b)
        assert eng.curves_for(gas, a) is first        # a is now the newest
        eng.curves_for(gas, c)                        # evicts b
        assert eng.curves_for(gas, a) is first


def _profile_bytes(prof) -> tuple:
    """Every bit of a profile: its samples, residual rows and metrics."""
    return (prof.xi.tobytes(), prof.V.tobytes(), prof.U.tobytes(), prof.Theta.tobytes(),
            prof.residual_rows.tobytes(), repr(prof.metrics))


ORBIT_CURVES = [("subsonic", "gamma1"), ("subsonic", "gamma2"), ("transonic", "sigma")]


def _five_on(request, gas, case, label):
    """The curve and five flux-compatible boundaries spread along it."""
    right = request.getfixturevalue(f"right_{case}")
    curve = request.getfixturevalue(f"{case}_curves")[label]
    n = len(curve.samples)
    return curve, [Query(_left_for(curve, n * (k + 1) // 6, right), right, gas)
                   for k in range(5)]


def _borderline(q, curve, k):
    """q's boundary moved ``k`` membership tolerances off ``curve`` along
    its value coordinate, flux-compatible."""
    bump = k * q.tolerances.tol_member * curve.value_scale
    u, theta = q.left.u, q.left.theta
    if curve.param_index == 0:
        theta += bump
    else:
        u += bump
    return Query(EndState(u * q.right.v / q.right.u, u, theta), q.right, q.gas)


SUFFIX_CURVES = ORBIT_CURVES + [("subcase_b", "gamma1"), ("subcase_b", "gamma2")]


def _grid_edges(orbit) -> list[float]:
    """Graph coordinates inside the orbit's start at the edges of the first
    panel rule: on three nodes of its inner grid and one ulp either side of
    each, exactly two panels (1/8 decade) above each and one ulp either
    side of that, and just inside the start."""
    grid = orbit.inner[0]
    ws = [orbit.w_start * (1.0 - 1e-12)]
    for g in (float(grid[j]) for j in (3, len(grid) // 3, 2 * len(grid) // 3)):
        for w in (g, g / tracer_module._FIRST_PANEL):
            ws += [w, math.nextafter(w, 0.0), math.nextafter(w, 2.0 * w)]
    return ws


class TestProfileOrbits:
    """Refined memberships and profiles on one curve are prefixes of one
    backward run that the curve keeps; no history of earlier refinements or
    profiles may move a bit."""

    @pytest.mark.parametrize("case,label", ORBIT_CURVES)
    def test_profiles_do_not_depend_on_cache_history(self, request, gas, case, label):
        curve, queries = _five_on(request, gas, case, label)
        # a borderline boundary next to each, refined on the orbit: on the
        # curve at 0.5 membership tolerances, off it at 3
        near = [_borderline(q, curve, 3.0 if i % 2 else 0.5) for i, q in enumerate(queries)]
        fresh = [_profile_bytes(ExistenceEngine().compute_profile(q)) for q in queries]
        fresh_verdicts = [verdict_to_dict(ExistenceEngine().decide(q)) for q in near]
        assert [v["outcome"] for v in fresh_verdicts] == ["exists", "not_exists"] * 2 + ["exists"]
        legs = [leg.n_steps for leg in (_leg_by_integrate(q, curve) for q in queries)
                if leg is not None]
        assert len(legs) >= 3
        shuffled = list(range(5))
        random.Random(7).shuffle(shuffled)
        for o, order in enumerate((list(range(5)), list(range(5))[::-1], shuffled)):
            eng = ExistenceEngine()
            got, verdicts = {}, {}
            for k, i in enumerate(order):
                # the refined decide before the profile at every other
                # boundary, after it at the others; the first call of the
                # second order is a profile, of the others a decide
                first = (k + o) % 2 == 0
                if first:
                    verdicts[i] = verdict_to_dict(eng.decide(near[i]))
                got[i] = _profile_bytes(eng.compute_profile(queries[i]))
                if not first:
                    verdicts[i] = verdict_to_dict(eng.decide(near[i]))
            assert [got[i] for i in range(5)] == fresh, order
            assert [verdicts[i] for i in range(5)] == fresh_verdicts, order
            # one orbit, holding the steps to the farthest boundary and no more
            assert _orbit_steps(eng) == [max(legs)]

    @pytest.mark.parametrize("case,label", ORBIT_CURVES)
    def test_threads_profiling_one_curve_agree(self, request, gas, case, label):
        curve, queries = _five_on(request, gas, case, label)
        near = [_borderline(q, curve, 3.0 if i % 2 else 0.5) for i, q in enumerate(queries)]
        fresh = [_profile_bytes(ExistenceEngine().compute_profile(q)) for q in queries]
        fresh_verdicts = [verdict_to_dict(ExistenceEngine().decide(q)) for q in near]
        eng = ExistenceEngine()
        eng.curves_for(gas, queries[0].right)      # the threads race on the orbit only
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results, verdicts, errors = [], [], []

        def caller(j):
            # each thread starts at another boundary, half of them going
            # back; half of them refine a borderline boundary before each
            # profile, the others after it
            order = list(range(j, 5)) + list(range(j))
            order = order[::-1] if j % 2 else order
            try:
                barrier.wait(timeout=10)
                for i in order:
                    if j < 2:
                        verdicts.append((i, verdict_to_dict(eng.decide(near[i]))))
                    results.append((i, _profile_bytes(eng.compute_profile(queries[i]))))
                    if j >= 2:
                        verdicts.append((i, verdict_to_dict(eng.decide(near[i]))))
            except Exception as exc:     # reported by the assertions below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(j,)) for j in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and len(results) == len(verdicts) == 5 * n_threads
        for i, got in results:
            assert got == fresh[i], i
        for i, got in verdicts:
            assert got == fresh_verdicts[i], i
        assert len(_orbit_steps(eng)) == 1

    def test_step_budget_raises_as_on_a_fresh_engine(self, request, gas, monkeypatch):
        curve, queries = _five_on(request, gas, "subsonic", "gamma1")
        near, far = queries[1], queries[4]
        k_near, k_far = (_leg_by_integrate(q, curve).n_steps for q in (near, far))
        assert k_near < k_far
        budget = (k_near + k_far) // 2
        monkeypatch.setattr(tracer_module, "_LEG_SETTINGS",
                            dataclasses.replace(tracer_module._LEG_SETTINGS,
                                                max_steps=budget))
        with pytest.raises(ProfileDiverged, match="budget") as fresh:
            ExistenceEngine().compute_profile(far)
        want_near = _profile_bytes(ExistenceEngine().compute_profile(near))
        eng = ExistenceEngine()
        assert _profile_bytes(eng.compute_profile(near)) == want_near
        for _ in range(2):          # on a run stepped on to its budget, then on a spent one
            with pytest.raises(ProfileDiverged) as warm:
                eng.compute_profile(far)
            assert str(warm.value) == str(fresh.value)
            assert _orbit_steps(eng) == [budget]
        # the steps of the spent run still serve the boundaries they reach
        assert _profile_bytes(eng.compute_profile(near)) == want_near

    @pytest.mark.parametrize("case,label", ORBIT_CURVES)
    def test_refined_verdict_and_its_profile_read_one_stop(self, request, gas, monkeypatch,
                                                           case, label):
        curve, queries = _five_on(request, gas, case, label)
        right, pidx, vidx = queries[0].right, curve.param_index, 1 - curve.param_index
        # and the first and the last curve sample inside the graph radius
        params = curve.samples[:, pidx]
        w_edge = math.copysign(curve.graph_radius,
                               (params[1] - params[0]) / curve.graph.e_slow[pidx])
        reach = abs(curve.graph.points(w_edge)[pidx] - params[0])
        n_in = int(np.count_nonzero(np.abs(params[1:] - params[0]) <= reach))
        queries += [Query(_left_for(curve, i, right), right, gas) for i in sorted({1, n_in})]
        legs = [_leg_by_integrate(q, curve) for q in queries]
        assert sum(leg is not None for leg in legs) >= 3 and legs[-1] is None
        gaps = []
        check = ExistenceEngine._landing_check

        def measured(self, q, point, i):
            gaps.append(abs((point.u, point.theta)[1 - i] - (q.left.u, q.left.theta)[1 - i]))
            check(self, q, point, i)

        monkeypatch.setattr(ExistenceEngine, "_landing_check", measured)
        eng = ExistenceEngine()
        c = eng.curves_for(gas, right)[label]
        p_s1 = params[0]
        for q, leg in zip(queries, legs):
            on = eng.decide(q)
            assert on.exists and on.curve == label
            qparam = (q.left.u, q.left.theta)[pidx]
            if leg is not None:
                want = (leg.event.point.u, leg.event.point.theta)[vidx]
            else:
                want = curve.graph.points(curve.graph.w_at(pidx, qparam - p_s1))[vidx]
            assert float(c.refine_value(qparam)).hex() == float(want).hex()
            for k in (0.5, 3.0):
                b = _borderline(q, curve, k)
                mem = curve_membership(c, PhasePoint(b.left.u, b.left.theta),
                                       b.tolerances.tol_member)
                assert mem.refined and mem.on_curve == (k < 1.0)
                verdict = eng.decide(b)
                assert verdict.exists == (k < 1.0)
                if not verdict.exists:
                    assert verdict.distance == mem.distance
                gaps.clear()
                eng.compute_profile(b, verdict if verdict.exists else on)
                assert len(gaps) == 1
                assert float(abs(mem.distance)).hex() == float(gaps[0]).hex(), (k, leg)

    def test_borderline_landing_still_raises(self, request, gas):
        curve, queries = _five_on(request, gas, "subsonic", "gamma1")
        on = queries[2]
        verdict = ExistenceEngine().decide(on)
        assert verdict.exists and curve.param_index == 0
        # theta, gamma1's value coordinate, 20 membership tolerances off the curve
        bump = 20 * on.tolerances.tol_member * on.right.theta
        off = Query(EndState(on.left.v, on.left.u, on.left.theta + bump), on.right, gas)
        with pytest.raises(ProfileDiverged, match="borderline") as fresh:
            ExistenceEngine().compute_profile(off, verdict)
        eng = ExistenceEngine()
        for q in (on, queries[4]):   # the orbit stopped at, then beyond, the boundary
            eng.compute_profile(q)
            with pytest.raises(ProfileDiverged) as warm:
                eng.compute_profile(off, verdict)
            assert str(warm.value) == str(fresh.value)

    def test_verdict_for_the_other_curve_raises_before_a_step(self, gas, right_subsonic):
        # a mid-sample gamma2 boundary lies beyond gamma1's parameter range
        # (its u is above u+), so gamma1's verdict passed with it is
        # rejected before gamma1's orbit takes a step
        eng = ExistenceEngine()
        curves = eng.curves_for(gas, right_subsonic)
        gamma1, gamma2 = curves["gamma1"], curves["gamma2"]
        mid = len(gamma1.samples) // 2
        verdict = eng.decide(Query(_left_for(gamma1, mid, right_subsonic), right_subsonic, gas))
        assert verdict.exists and verdict.curve == "gamma1"
        q = Query(_left_for(gamma2, len(gamma2.samples) // 2, right_subsonic),
                  right_subsonic, gas)
        before = _orbit_steps(eng)
        with pytest.raises(ProfileDiverged, match="outside gamma1's range"):
            eng.compute_profile(q, verdict)
        assert _orbit_steps(eng) == before
        assert gamma1.orbit.run is None or gamma1.orbit.run.n_steps == 0

    def test_boundary_inside_the_graph_radius_takes_no_step(
            self, gas, monkeypatch, right_transonic, transonic_curves):
        evals = []

        def counting(s):
            fun = phase_field(s)

            def counted(t, y):
                evals.append(t)
                return fun(t, y)

            return counted

        monkeypatch.setattr(tracer_module, "phase_field", counting)
        sigma = transonic_curves["sigma"]
        inside = Query(_left_at(sigma, 0.9995 * right_transonic.u, right_transonic),
                       right_transonic, gas)
        beyond = Query(_left_for(sigma, len(sigma.samples) // 2, right_transonic),
                       right_transonic, gas)
        assert _leg_by_integrate(inside, sigma) is None
        assert _leg_by_integrate(beyond, sigma) is not None
        want = _profile_bytes(ExistenceEngine().compute_profile(inside))
        eng = ExistenceEngine()
        eng.curves_for(gas, right_transonic)     # the trace calls the field too
        evals.clear()
        assert _profile_bytes(eng.compute_profile(inside)) == want
        assert evals == [] and _orbit_steps(eng) == []
        eng.compute_profile(beyond)
        n_evals, steps = len(evals), _orbit_steps(eng)
        assert n_evals > 0 and steps[0] > 0
        # on a warm orbit too, the graph point alone
        assert _profile_bytes(eng.compute_profile(inside)) == want
        assert len(evals) == n_evals and _orbit_steps(eng) == steps

    @pytest.mark.parametrize("first_inside", [True, False],
                             ids=["inside_first", "beyond_first"])
    @pytest.mark.parametrize("case,label", ORBIT_CURVES)
    def test_inner_leg_is_built_once_per_curve(self, request, gas, monkeypatch, case, label,
                                               first_inside):
        curve, queries = _five_on(request, gas, case, label)
        # and the first and the last curve sample inside the graph radius
        right, pidx = queries[0].right, curve.param_index
        params = curve.samples[:, pidx]
        w_edge = math.copysign(curve.graph_radius,
                               (params[1] - params[0]) / curve.graph.e_slow[pidx])
        reach = abs(curve.graph.points(w_edge)[pidx] - params[0])
        n_in = int(np.count_nonzero(np.abs(params[1:] - params[0]) <= reach))
        queries += [Query(_left_for(curve, i, right), right, gas) for i in sorted({1, n_in})]
        fresh = [_profile_bytes(ExistenceEngine().compute_profile(q)) for q in queries]
        beyond = {i for i, q in enumerate(queries) if _leg_by_integrate(q, curve) is not None}
        inside = set(range(len(queries))) - beyond
        assert len(beyond) >= 3 and inside >= {5}
        eng = ExistenceEngine()
        verdicts = [eng.decide(q) for q in queries]
        flights, polys = [], []
        flight_times, horner = SlowGraph.flight_times, linearize_module._horner

        def counted_flights(graph, w_grid):
            flights.append(len(w_grid))
            return flight_times(graph, w_grid)

        def counted_horner(coef, w):
            polys.append(coef)
            return horner(coef, w)

        monkeypatch.setattr(SlowGraph, "flight_times", counted_flights)
        monkeypatch.setattr(linearize_module, "_horner", counted_horner)
        order = list(range(len(queries)))
        random.Random(11).shuffle(order)
        # whichever side of the graph radius the first profile lies on
        first = next(i for i in order if (i in inside) == first_inside)
        order.remove(first)
        order.insert(0, first)
        got, grids, cost = {}, {}, {}
        for i in order:
            n_flights, n_polys = len(flights), len(polys)
            got[i] = _profile_bytes(eng.compute_profile(queries[i], verdicts[i]))
            grids[i], cost[i] = flights[n_flights:], len(polys) - n_polys
        assert [got[i] for i in range(len(queries))] == fresh
        # the full grid is quadratured once per curve, by the first profile;
        # a profile inside the radius adds one panel, from its boundary on
        assert [n for i in order for n in grids[i] if n > 2] == grids[first][:1]
        assert all([n for n in grids[i] if n <= 2] == [2] for i in inside)
        assert all(n > 2 for i in beyond for n in grids[i])
        # after the first, a profile beyond the radius evaluates no graph polynomial
        assert all(grids[i] == [] and cost[i] == 0 for i in beyond - {first})

    @pytest.mark.parametrize("case,label", SUFFIX_CURVES)
    def test_profile_inside_the_graph_radius_is_a_suffix_of_its_curve(
            self, request, engine, gas, case, label):
        right = request.getfixturevalue(f"right_{case}")
        curve = request.getfixturevalue(f"{case}_curves")[label]
        # the last sample short of the terminal, beyond the graph radius
        far = Query(_left_for(curve, len(curve.samples) - 2, right), right, gas)
        assert _leg_by_integrate(far, curve) is not None
        beyond = engine.compute_profile(far)
        tail = np.column_stack([beyond.U, beyond.Theta])
        orbit = curve.orbit
        full, grid = orbit.leg(orbit.w_start), orbit.inner[0]
        for w in _grid_edges(orbit):
            assert abs(w) < abs(orbit.w_start)
            # the orbit's leg from w joins the grid at its first node at
            # least two panels below w
            flights, pts, rows = orbit.leg(w)
            k = len(grid) - len(pts)
            assert abs(grid[k]) <= tracer_module._FIRST_PANEL * abs(w) < abs(grid[k - 1])
            assert pts.tobytes() == full[1][k - 1:].tobytes()
            assert rows.tobytes() == full[2][k - 1:].tobytes()
            assert flights[1:].tobytes() == full[0][k:].tobytes() and flights[0] > 0.0
            # and so does the profile to the boundary at w
            u, theta = (float(x) for x in curve.graph.points(w))
            prof = engine.compute_profile(
                Query(EndState(u * right.v / right.u, u, theta), right, gas))
            m = len(prof.xi) - 1
            assert prof.curve == label and len(prof.residual_rows) == m
            assert np.column_stack([prof.U, prof.Theta])[1:].tobytes() == tail[-m:].tobytes()
            assert prof.residual_rows.tobytes() == beyond.residual_rows[-m:].tobytes()
            assert np.all(np.diff(prof.xi) > 0.0)
            assert prof.metrics["monotone_ok"]
            assert prof.metrics["residual_sup"] <= 1e-8
            assert prof.metrics["endpoint_gap"] <= 1e-8

    def test_orbits_leave_with_their_cache_entry(self, request, gas, monkeypatch):
        monkeypatch.setattr(engine_module, "CURVE_CACHE_SIZE", 1)
        _, queries = _five_on(request, gas, "subsonic", "gamma1")
        eng = ExistenceEngine()
        first = _profile_bytes(eng.compute_profile(queries[4]))
        assert len(_orbit_steps(eng)) == 1
        eng.curves_for(gas, EndState(1.0, 0.9, 1.0))   # evicts the canonical far field
        assert _orbit_steps(eng) == []
        assert _profile_bytes(eng.compute_profile(queries[4])) == first


def test_verdict_continuous_across_the_sonic_band_edge(gas):
    # at 1 - M+ = 2 TOL_MACH the default band says subsonic (gamma1) and a
    # band twice as wide says sonic (sigma); a boundary point on gamma1 must
    # exist on both, at the same parameter
    right = EndState(1.0, (1.0 - 2 * TOL_MACH) * math.sqrt(1.4), 1.0)
    eng = ExistenceEngine()
    g1 = eng.curves_for(gas, right)["gamma1"]
    assert g1.terminal == "hit_u_axis"
    for i in (len(g1.samples) // 5, len(g1.samples) // 2, 4 * len(g1.samples) // 5):
        q = Query(_left_for(g1, i, right), right, gas)
        sub = eng.decide(q)
        sonic = eng.decide(Query(q.left, right, gas, Tolerances(tol_M=4 * TOL_MACH)))
        assert sub.regime.is_subsonic and sub.exists and sub.curve == "gamma1"
        assert sonic.regime.is_transonic and sonic.exists and sonic.curve == "sigma"
        assert sonic.curve_parameter == sub.curve_parameter


def test_a_far_field_whose_field_overflows_raises_nonfinite(gas):
    # theta+ = 1e120: the first trace's first attempted step reaches
    # |u - u+| ~ 1e108, whose cube is too large for a float
    q = Query(EndState(0.5, 5e59, 1.3e120), EndState(1.0, 1e60, 1e120), gas)
    with pytest.raises(NonFinite, match="overflows"):
        ExistenceEngine().decide(q)
