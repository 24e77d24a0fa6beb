"""Properties of the decision procedure over random gas, far-field and
boundary data, under the derandomised ``tier1`` profile of conftest.py.

Subsonic far fields are drawn however stiff the saddle at S1 is, up to
1 - M+ = 1e-6: the branches start on the slow-manifold graph, so they no
longer crawl along the slow direction there.  A stiff saddle whose S2 lies
beyond the graph's certified radius still costs about half a second per
gamma2, crawling into S2; none of the tier-1 draws is one.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inflow_layer import (EndState, ExistenceEngine, GasParams, LayerError,
                          Query, build_system, field_poly, phase_field,
                          verdict_to_dict)
from inflow_layer.portrait import render_portrait


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0 ** x)


gases = st.builds(GasParams, gamma=st.floats(1.05, 2.2), R=_log_uniform(-1.0, 1.0),
                  mu=_log_uniform(-1.0, 1.0), kappa=_log_uniform(-1.0, 1.0))


@st.composite
def far_fields(draw, machs):
    """(gas, far field) at a Mach number drawn from ``machs``."""
    gas = draw(gases)
    theta = draw(_log_uniform(-0.7, 0.7))
    v = draw(_log_uniform(-0.7, 0.7))
    mach = draw(machs)
    return gas, EndState(v, mach * math.sqrt(gas.R * gas.gamma * theta), theta)


# subsonic Mach numbers reach 1 - M+ = 1e-6, where the branches are slow
# manifolds that the graph seed carries
near_sonic_machs = st.floats(-6.0, -2.0).map(lambda x: 1.0 - 10.0 ** x)
layer_machs = st.one_of(st.floats(0.05, 0.99), near_sonic_machs, st.just(1.0))
any_machs = st.one_of(layer_machs, st.floats(1.05, 3.0))


@st.composite
def boundaries(draw, right: EndState):
    """Boundary data around the far field, flux-compatible or not."""
    u = draw(st.floats(0.01, 2.0)) * right.u
    theta = draw(st.floats(0.01, 3.0)) * right.theta
    matched = u * right.v / right.u
    v = draw(st.one_of(st.just(matched), st.floats(0.5, 2.0).map(lambda f: f * matched)))
    return EndState(v, u, theta)


def _at_sample(draw, curve, right: EndState) -> EndState:
    """A flux-compatible boundary state on one of the curve's samples."""
    # neither S1 (the trivial layer) nor the terminal point on an axis
    i = draw(st.integers(1, len(curve.samples) - 2))
    u, theta = (float(x) for x in curve.samples[i])
    return EndState(u * right.v / right.u, u, theta)


def _on_curve(draw, curves: dict, right: EndState):
    """A curve label and a flux-compatible boundary state on one of its samples."""
    label = draw(st.sampled_from(sorted(curves)))
    return label, _at_sample(draw, curves[label], right)


def _decision(engine: ExistenceEngine, q: Query):
    try:
        return verdict_to_dict(engine.decide(q))
    except LayerError as exc:
        return type(exc).__name__


@settings(max_examples=30)
@given(st.data())
def test_decide_raises_only_layer_errors_and_returns_finite_fields(data):
    gas, right = data.draw(far_fields(any_machs))
    left = data.draw(boundaries(right))
    try:
        verdict = ExistenceEngine().decide(Query(left, right, gas))
    except LayerError:
        return
    for f in dataclasses.fields(verdict):
        value = getattr(verdict, f.name)
        if isinstance(value, float):
            assert math.isfinite(value), f"{f.name} = {value}"


@settings(max_examples=20)
@given(st.data())
def test_point_on_traced_curve_exists_on_that_curve(data):
    gas, right = data.draw(far_fields(layer_machs))
    engine = ExistenceEngine()
    label, left = _on_curve(data.draw, engine.curves_for(gas, right), right)
    verdict = engine.decide(Query(left, right, gas))
    assert verdict.exists and verdict.curve == label


@settings(max_examples=10)
@given(st.data())
def test_profile_at_a_traced_sample_meets_the_bounds(data):
    # the decay rate is left out: near M+ = 1 the fixed exponential window
    # reaches past the linear regime, which shrinks like 1 - M+
    gas, right = data.draw(far_fields(layer_machs))
    engine = ExistenceEngine()
    for label, curve in sorted(engine.curves_for(gas, right).items()):
        left = _at_sample(data.draw, curve, right)
        prof = engine.compute_profile(Query(left, right, gas))
        assert prof.curve == label
        assert prof.metrics["residual_sup"] <= 1e-8
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["endpoint_gap"] <= 1e-8 * prof.system.scale


@settings(max_examples=10)
@given(st.data())
def test_profile_inside_the_graph_radius_is_a_suffix_of_its_curve(data):
    # every profile on a curve ends on the one inner grid of its orbit: the
    # leg from the graph radius r*, which a profile beyond r* ends with
    gas, right = data.draw(far_fields(st.one_of(st.floats(0.05, 0.99), st.just(1.0))))
    engine = ExistenceEngine()
    for label, curve in sorted(engine.curves_for(gas, right).items()):
        orbit, pidx, scale = curve.orbit, curve.param_index, curve.system.scale
        # the parameter's distance from S1, log-uniform from 1e-7 scale to r*'s
        p_s1 = curve.samples[0, pidx]
        reach = abs(orbit.edge[pidx] - p_s1)
        d = reach * (1e-7 * scale / reach) ** data.draw(st.floats(0.0, 1.0, exclude_min=True))
        u, theta = (float(x) for x in curve.graph.points(curve.graph_w(p_s1 - d)))
        prof = engine.compute_profile(Query(EndState(u * right.v / right.u, u, theta),
                                            right, gas))
        _, tail, rows = orbit.leg(orbit.w_start)
        m = len(prof.xi) - 1
        assert prof.curve == label and len(prof.residual_rows) == m
        assert np.column_stack([prof.U, prof.Theta])[1:].tobytes() == tail[-m:].tobytes()
        assert prof.residual_rows.tobytes() == rows[-m:].tobytes()
        assert np.all(np.diff(prof.xi) > 0.0)
        assert prof.metrics["monotone_ok"]
        assert prof.metrics["residual_sup"] <= 1e-8
        assert prof.metrics["endpoint_gap"] <= 1e-8 * scale


@pytest.fixture(scope="module")
def warm_engine():
    return ExistenceEngine()


@settings(max_examples=10)
@given(data=st.data())
def test_fresh_and_warm_engines_agree(warm_engine, data):
    # the warm engine has answered every earlier example, in the drawn
    # order; the fresh one sees only this example's queries, reversed
    gas, right = data.draw(far_fields(layer_machs))
    _label, on = _on_curve(data.draw, warm_engine.curves_for(gas, right), right)
    queries = [Query(left, right, gas)
               for left in [on, data.draw(boundaries(right)), data.draw(boundaries(right))]]
    warm = [_decision(warm_engine, q) for q in queries]
    fresh = ExistenceEngine()
    assert [_decision(fresh, q) for q in reversed(queries)] == warm[::-1]


def _profile_bytes(prof) -> tuple:
    return (prof.xi.tobytes(), prof.V.tobytes(), prof.U.tobytes(), prof.Theta.tobytes(),
            prof.residual_rows.tobytes(), repr(prof.metrics))


@settings(max_examples=8)
@given(st.data())
def test_warm_profiles_do_not_depend_on_query_order(data):
    # refined memberships and profiles on one curve share a backward run,
    # its stacked steps and an inner leg along the graph; none of it may
    # move a bit, whatever was refined or profiled before.  The first
    # boundary lies inside the graph radius.  Next to each boundary lies a
    # borderline one, 0.5 or 3 membership tolerances off the curve, whose
    # membership is refined on the curve's orbit.
    gas, right = data.draw(far_fields(st.floats(0.05, 0.99)))
    curves = ExistenceEngine().curves_for(gas, right)
    queries, near = [], []
    for j in range(4):
        curve = curves[data.draw(st.sampled_from(["gamma1", "gamma2"]))]
        # the last sample at or before a drawn fraction of the distance from
        # S1 along the parameter, out to the last sample short of the
        # terminal or, for the first boundary, to the graph radius
        pidx, graph = curve.param_index, curve.graph
        params = curve.samples[:, pidx]
        dist = np.abs(params[1:-1] - params[0])
        reach = dist[-1]
        if j == 0:
            w_edge = math.copysign(curve.graph_radius,
                                   (params[1] - params[0]) / graph.e_slow[pidx])
            reach = abs(graph.points(w_edge)[pidx] - params[0])
        i = max(1, int(np.count_nonzero(dist <= data.draw(st.floats(0.0, 1.0)) * reach)))
        u, theta = (float(x) for x in curve.samples[i])
        queries.append(Query(EndState(u * right.v / right.u, u, theta), right, gas))
        bump = (data.draw(st.sampled_from([0.5, 3.0])) * queries[-1].tolerances.tol_member
                * curve.value_scale)
        u, theta = (u, theta + bump) if pidx == 0 else (u + bump, theta)
        near.append(Query(EndState(u * right.v / right.u, u, theta), right, gas))
    fresh = [_profile_bytes(ExistenceEngine().compute_profile(q)) for q in queries]
    fresh_verdicts = [_decision(ExistenceEngine(), q) for q in near]
    warm, got, verdicts = ExistenceEngine(), {}, {}
    order = data.draw(st.permutations(range(4)))
    for i, decide_first in zip(order, data.draw(st.lists(st.booleans(), min_size=4,
                                                         max_size=4))):
        if decide_first:
            verdicts[i] = _decision(warm, near[i])
        got[i] = _profile_bytes(warm.compute_profile(queries[i]))
        if not decide_first:
            verdicts[i] = _decision(warm, near[i])
    assert [got[i] for i in range(4)] == fresh
    assert [verdicts[i] for i in range(4)] == fresh_verdicts


@settings(max_examples=300)
@given(far_fields(any_machs), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_field_bits_equal_on_floats_numpy_scalars_and_in_the_stepper(far, u, theta):
    # Python floats round every operation as numpy's float64 scalars do, so
    # the stepper's evaluation on floats repeats the numpy one bit for bit.
    # 1-d arrays are left out: numpy's vectorised pow may round du ** 3
    # differently from the C library's pow by one unit in the last place.
    s = build_system(*far)
    on_floats = field_poly(u, theta, s)
    assert all(type(x) is float for x in on_floats)
    for other in (field_poly(np.float64(u), np.float64(theta), s),
                  field_poly(np.asarray(u), np.asarray(theta), s),
                  phase_field(s)(0.0, np.array([u, theta]))):
        assert [float(x).hex() for x in other] == [x.hex() for x in on_floats]


@settings(max_examples=10)
@given(far_fields(layer_machs))
def test_portrait_renders_every_layer_far_field(field):
    # its trajectories leave the view mid-step, and their sub-samples with it
    gas, right = field
    svg = render_portrait(build_system(gas, right), ExistenceEngine().curves_for(gas, right))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
