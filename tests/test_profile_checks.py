"""A profile's checks combine the reductions its curve's orbit keeps for the
rows every profile on the curve shares with the few rows that are the
profile's own; each must equal the check made on the whole profile."""

import math
import sys
import threading

import numpy as np
import pytest

from conftest import load_bench
from inflow_layer import (EndState, ExistenceEngine, Query, TailTooShort, classify_regime,
                          verify_decay, verify_residual)
from inflow_layer import integrator as integrator_module
from inflow_layer import system as system_module
from inflow_layer import tracer as tracer_module


def _monotone_check(prof, pidx: int) -> tuple[bool, tuple[int, int, int]]:
    """Strict monotonicity of (V, U, Theta) via sample differences: toward
    S1 the curve's parameter, coordinate ``pidx`` of (u, theta), rises and
    the other one falls, and V moves with U."""

    def sgn(d):
        if np.all(d > 0.0):
            return 1
        if np.all(d < 0.0):
            return -1
        return 0

    signs = (sgn(np.diff(prof.V)), sgn(np.diff(prof.U)), sgn(np.diff(prof.Theta)))
    u_sign = 1 if pidx == 0 else -1
    return signs == (u_sign, u_sign, -u_sign), signs


def _own_decay(prof, regime):
    try:
        return verify_decay(prof, regime)
    except TailTooShort:
        return None


def _check(engine, q) -> bool | None:
    """Profile q's boundary and check its metrics against the checks of
    the whole profile: the residual and signs bit for bit, the decay within
    1e-12 relative when it is read off the curve's grid and bit for bit
    when it is fitted on the profile.  Whether it was read off the grid;
    None for a boundary with no layer."""
    verdict = engine.decide(q)
    if not verdict.exists:
        return None
    prof = engine.compute_profile(q, verdict)
    curve = engine.curves_for(q.gas, q.right, q.tolerances.tol_M)[verdict.curve]
    pidx = curve.param_index
    m = prof.metrics
    assert float(m["residual_sup"]).hex() == float(verify_residual(prof, prof.system)).hex()
    assert (m["monotone_ok"], m["signs"]) == _monotone_check(prof, pidx)
    regime = classify_regime(prof.system.mach_plus, q.tolerances.tol_M)
    want = _own_decay(prof, regime)
    shared = curve.leg((q.left.u, q.left.theta)[pidx]).decay is not None
    if not shared:
        assert repr(m["decay"]) == repr(want)
        return False
    got = m["decay"]
    assert got.kind == want.kind == "exponential" and got.n_tail == want.n_tail
    for name in ("rate", "amplitude", "rate_theta"):
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= 1e-12 * abs(b), name
    return True


@pytest.mark.parametrize("seed", [0, 1])
def test_query_mix_checks_equal_the_whole_profile_checks(seed):
    workloads = load_bench("workloads.py", "bench_workloads")
    mix = workloads.QueryMix(seed)
    mix.setup()
    paths = [_check(mix.engine, case.query)
             for case in mix.cases + mix.cases[::-1]]
    # most subsonic profiles read the grid's fit, and the sonic ones fit their own
    assert paths.count(True) > 20 and paths.count(False) >= 10


def _on(curve, i: int, right: EndState, gas) -> Query:
    """The flux-compatible boundary at sample i of the curve."""
    u, theta = (float(x) for x in curve.samples[i])
    return Query(EndState(u * right.v / right.u, u, theta), right, gas)


def _grid_edges(orbit) -> list[float]:
    """w on three nodes of the orbit's grid and one ulp either side, two
    panels above each and one ulp either side, and just inside the start."""
    w = orbit.grid().w
    ws = [orbit.w_start * (1.0 - 1e-12)]
    for g in (float(w[j]) for j in (3, len(w) // 3, 2 * len(w) // 3)):
        for x in (g, g / tracer_module._FIRST_PANEL):
            ws += [x, math.nextafter(x, 0.0), math.nextafter(x, 2.0 * x)]
    return ws


def test_grid_edge_and_near_sonic_checks_equal_the_whole_profile_checks(gas):
    engine = ExistenceEngine()
    sound = math.sqrt(gas.gamma * gas.R)
    for right in (EndState(1.0, 1.0, 1.0), EndState(1.0, 0.3, 1.0),
                  EndState(1.0, sound, 1.0)):
        for curve in engine.curves_for(gas, right).values():
            for w in _grid_edges(curve.orbit):
                u, theta = (float(x) for x in curve.graph.points(w))
                assert _check(engine, Query(EndState(u * right.v / right.u, u, theta),
                                            right, gas)) is not None
    for gap in (1e-2, 1e-3):
        right = EndState(1.0, (1.0 - gap) * sound, 1.0)
        for label, curve in engine.curves_for(gas, right).items():
            path = _check(engine, _on(curve, len(curve.samples) // 2, right, gas))
            # near-sonic gamma2 lies inside its graph radius, past the
            # grid's first tail row: it is fitted on its own
            assert path == (label == "gamma1"), (gap, label)


def test_fallback_on_either_side_of_the_window_rule(gas, right_subsonic):
    # inside r*, a gamma1 profile whose first grid row is at most the
    # grid's first tail row reads the grid's fit; one whose boundary lies
    # in the window itself, |U - u+| < 1e-2 scale, misses the grid's first
    # tail rows and fits its own
    engine = ExistenceEngine()
    gamma1 = engine.curves_for(gas, right_subsonic)["gamma1"]
    grid, scale = gamma1.orbit.grid(), gamma1.system.scale
    first = grid.tail.first
    for j, shared in ((first - 1, True), (first, True), (first + 1, False),
                      (first + 3, False)):
        # the boundary two and a half nodes above node j + 1, grid row j's
        w = float(grid.w[j + 1]) * 10.0 ** (2.5 / 16)
        assert gamma1.orbit.first_row(w) == j
        u, theta = (float(x) for x in gamma1.graph.points(w))
        q = Query(EndState(u * right_subsonic.v / right_subsonic.u, u, theta),
                  right_subsonic, gas)
        assert _check(engine, q) is shared
    assert abs(u - right_subsonic.u) < 1e-2 * scale
    # near-sonic gamma2 at 1 - M+ = 1e-2, inside its graph radius past the
    # grid's first tail row
    right = EndState(1.0, 0.99 * math.sqrt(gas.gamma * gas.R), 1.0)
    gamma2 = engine.curves_for(gas, right)["gamma2"]
    assert _check(engine, _on(gamma2, len(gamma2.samples) // 2, right, gas)) is False


def _profile_bytes(prof) -> tuple:
    return (prof.xi.tobytes(), prof.V.tobytes(), prof.U.tobytes(), prof.Theta.tobytes(),
            prof.residual_rows.tobytes(), repr(prof.metrics))


@pytest.mark.parametrize("label", ["gamma1", "gamma2"])
def test_warm_profile_checks_only_its_own_rows(gas, right_subsonic, monkeypatch, label):
    curve = ExistenceEngine().curves_for(gas, right_subsonic)[label]
    n = len(curve.samples)
    far, mid = (_on(curve, i, right_subsonic, gas) for i in (n - 2, n // 2))
    for q in (far, mid):
        assert curve.beyond_graph((q.left.u, q.left.theta)[curve.param_index])
    want = _profile_bytes(ExistenceEngine().compute_profile(mid))
    engine = ExistenceEngine()
    engine.compute_profile(far)       # the orbit steps, and keeps rows, past mid's stop

    residual_rows, dense_steps, fits = [], set(), []
    rows_of, dense, values, polyfit = (system_module.row_residuals,
                                       integrator_module.Steps.dense,
                                       integrator_module.Steps.values, np.polyfit)

    def counted_rows(s, rows):
        residual_rows.append(len(rows))
        return rows_of(s, rows)

    def counted_dense(steps, t, which, slopes=False):
        dense_steps.update(np.arange(len(steps.h))[which].tolist())
        return dense(steps, t, which, slopes)

    def counted_values(steps, i, t):
        dense_steps.add(int(i))
        return values(steps, i, t)

    def counted_polyfit(*args, **kwargs):
        fits.append(1)
        return polyfit(*args, **kwargs)

    monkeypatch.setattr(system_module, "row_residuals", counted_rows)
    monkeypatch.setattr(tracer_module, "row_residuals", counted_rows)
    monkeypatch.setattr(integrator_module.Steps, "dense", counted_dense)
    monkeypatch.setattr(integrator_module.Steps, "values", counted_values)
    monkeypatch.setattr(np, "polyfit", counted_polyfit)
    got = _profile_bytes(engine.compute_profile(mid))
    assert got == want
    # the residual of its crossing step's partial row, the dense output of
    # that one step, and no fit: the grid's and the whole steps' rows are
    # the orbit's
    assert sum(residual_rows) <= 1 and len(dense_steps) <= 1 and fits == []


def test_threads_checking_one_curves_profiles_agree(gas):
    workloads = load_bench("workloads.py", "bench_workloads")
    mix = workloads.QueryMix(0)
    mix.setup()
    queries = [case.query for case in mix.cases
               if case.exists and case.curve == "gamma1"
               and case.query.right == workloads.CANONICAL]
    assert len(queries) >= 4
    serial = ExistenceEngine()
    fresh = [_profile_bytes(serial.compute_profile(q)) for q in queries]
    engine = ExistenceEngine()      # the threads race on the trace, the grid and the rows
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results, errors = [], []

    def caller(j):
        order = list(range(len(queries)))
        order = order[j:] + order[:j]
        order = order[::-1] if j % 2 else order
        try:
            barrier.wait(timeout=10)
            for i in order:
                results.append((i, _profile_bytes(engine.compute_profile(queries[i]))))
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
    assert errors == [] and len(results) == len(queries) * n_threads
    for i, got in results:
        assert got == fresh[i], i
