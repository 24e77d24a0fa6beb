import math
import sys
import threading
import time

import numpy as np
import pytest

from inflow_layer import (EndState, ExistenceEngine, GasParams, InvalidBoundary,
                          Profile, ProfileDiverged, Query, TailTooShort,
                          Tolerances, TraceFailed, classify_regime, trace_gamma,
                          verdict_to_dict, verify_decay, verify_residual)
from inflow_layer import engine as engine_module
from inflow_layer.gas import TOL_MACH
from inflow_layer.engine import (CURVE_TRIVIAL, REASON_MASS_FLUX,
                                 REASON_NONPOSITIVE_U_PLUS, REASON_OFF_CURVE,
                                 REASON_OUT_OF_RANGE, REASON_SUPERSONIC,
                                 REASON_TRUNCATED)
from inflow_layer.integrator import dense_eval, integrate
from inflow_layer.system import _residual_pair
from inflow_layer.tracer import TERMINAL_BUDGET, TraceOptions


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

    def test_profile_requires_existing_layer(self, engine, gas, right_supersonic):
        q = Query(EndState(0.5, 1.0, 1.3), right_supersonic, gas)
        with pytest.raises(ProfileDiverged):
            engine.compute_profile(q)


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


def _profile_and_leg(request, engine, gas, monkeypatch, case, label):
    """A mid-curve profile and the IntegrationResult of its backward leg."""
    import inflow_layer.engine as engine_module

    right = request.getfixturevalue(f"right_{case}")
    curve = request.getfixturevalue(f"{case}_curves")[label]
    q = Query(_left_for(curve, len(curve.samples) // 2, right), right, gas)
    runs = []

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(engine_module, "integrate", recording)
    prof = engine.compute_profile(q)
    assert prof.curve == label and len(runs) == 1
    return prof, runs[0]


@pytest.mark.parametrize("case,label", LEG_CASES)
def test_dense_eval_equals_each_step(request, engine, gas, monkeypatch, case, label):
    _, res = _profile_and_leg(request, engine, gas, monkeypatch, case, label)
    steps = [seg for _, _, seg in res.segments]
    assert len(steps) > 50
    for frac in (0.0, 0.5, 0.9, 1.0):
        t = np.array([seg.t_old + frac * seg.h for seg in steps])
        y, dy = dense_eval(steps, t)
        for i, (seg, ti) in enumerate(zip(steps, t)):
            assert y[i].tobytes() == seg(ti).tobytes(), (frac, i)
            # the per-step derivative formula dense_eval replaced
            x = (ti - seg.t_old) / seg.h
            k = np.arange(seg.Q.shape[1])
            assert dy[i].tobytes() == (seg.Q @ ((k + 1) * x ** k)).tobytes(), (frac, i)


@pytest.mark.parametrize("case,label", LEG_CASES)
def test_array_residual_equals_scalar_loop(request, engine, gas, monkeypatch, case,
                                           label):
    prof, res = _profile_and_leg(request, engine, gas, monkeypatch, case, label)
    s = prof.system
    # the leg's rows come first, one per step part inside [t_event, 0] that is
    # at least 1e-5 long, at its midpoint; the inner leg adds one row per
    # sample along the graph
    dom_lo, dom_hi = min(res.event.xi, 0.0), max(res.event.xi, 0.0)
    kept = []
    for t_lo, t_hi, seg in res.segments:
        a, b = sorted((t_lo, t_hi))
        a, b = max(a, dom_lo), min(b, dom_hi)
        if b - a >= 1e-5:
            kept.append((seg, 0.5 * (a + b)))
    assert len(prof.residual_rows) == len(kept) + len(prof.xi) - len(res.xi)
    for row, (seg, t_mid) in zip(prof.residual_rows, kept):
        assert row[:2].tobytes() == seg(t_mid).tobytes()
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
def test_near_sonic_profile_rides_the_graph(gas, monkeypatch, gap, label):
    # the slow tail decays at |lambda2| ~ 1 - M+; an integrator leg from
    # S1 crawled there and ran out of its step budget at 1 - M+ = 1e-5
    steps = []

    def counted(*args, **kwargs):
        res = integrate(*args, **kwargs)
        steps.append(res.n_steps)
        return res

    monkeypatch.setattr(engine_module, "integrate", counted)
    right = EndState(1.0, (1.0 - gap) * math.sqrt(1.4), 1.0)
    eng = ExistenceEngine()
    c = eng.curves_for(gas, right)[label]
    prof = eng.compute_profile(Query(_left_for(c, len(c.samples) // 2, right), right, gas))
    assert prof.metrics["residual_sup"] <= 1e-8
    assert prof.metrics["monotone_ok"]
    assert prof.metrics["endpoint_gap"] <= 1e-8
    assert sum(steps) <= 1000


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
