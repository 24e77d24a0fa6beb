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
from inflow_layer import engine as engine_module
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


def _check(engine, q) -> str | None:
    """Profile q's boundary and check its metrics against the checks of
    the whole profile, bit for bit: the residual, the signs and the decay.
    The decay's kind ("none" when the tail is too short); None for a
    boundary with no layer."""
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
    # equal, and with the same float reprs: bit for bit
    assert m["decay"] == want and repr(m["decay"]) == repr(want)
    return "none" if want is None else want.kind


@pytest.mark.parametrize("seed", [0, 1])
def test_query_mix_checks_equal_the_whole_profile_checks(seed):
    workloads = load_bench("workloads.py", "bench_workloads")
    mix = workloads.QueryMix(seed)
    mix.setup()
    kinds = [_check(mix.engine, case.query)
             for case in mix.cases + mix.cases[::-1]]
    # both regimes' fits are checked
    assert kinds.count("exponential") > 20 and kinds.count("algebraic") >= 4


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
            q = _on(curve, len(curve.samples) // 2, right, gas)
            assert _check(engine, q) is not None, (gap, label)


def test_boundaries_across_the_window_fit_the_grid_rows_they_keep(gas, right_subsonic):
    # inside r*, a profile from a boundary joining the inner grid at row j
    # is its boundary (at xi = 0) and the grid's rows from j on, so its
    # decay is fitted on exactly the grid's window rows from j on: all of
    # them up to the grid's first window row, one fewer for each row past
    # it, also once the boundary itself lies in the window
    engine = ExistenceEngine()
    for curve in engine.curves_for(gas, right_subsonic).values():
        orbit, pidx, s = curve.orbit, curve.param_index, curve.system
        grid = orbit.grid()
        window = engine_module.tail_rows(np.cumsum(grid.flights), grid.rows[:, 0], s)
        first = int(np.argmax(window))
        for j in (first - 1, first, first + 1, first + 3, first + 8):
            # the boundary two and a half nodes above node j + 1, grid row j's
            w = float(grid.w[j + 1]) * 10.0 ** (2.5 / 16)
            assert orbit.first_row(w) == j
            u, theta = (float(x) for x in curve.graph.points(w))
            q = Query(EndState(u * right_subsonic.v / right_subsonic.u, u, theta),
                      right_subsonic, gas)
            assert _check(engine, q) == "exponential"
            report = engine.compute_profile(q).metrics["decay"]
            assert report.n_tail == int(np.count_nonzero(window[j:]))
            assert report.n_tail == np.count_nonzero(window) - max(j - first, 0)
        assert abs(u - right_subsonic.u) < engine_module.TAIL_WINDOW[1] * s.scale


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
    rows_of, dense, values, line_fit = (system_module.row_residuals,
                                        integrator_module.Steps.dense,
                                        integrator_module.Steps.values, engine_module._line_fit)

    def counted_rows(s, rows):
        residual_rows.append(len(rows))
        return rows_of(s, rows)

    def counted_dense(steps, t, which, slopes=False):
        dense_steps.update(np.arange(len(steps.h))[which].tolist())
        return dense(steps, t, which, slopes)

    def counted_values(steps, i, t):
        dense_steps.add(int(i))
        return values(steps, i, t)

    def counted_line_fit(x, y):
        fits.append(len(x))
        return line_fit(x, y)

    monkeypatch.setattr(system_module, "row_residuals", counted_rows)
    monkeypatch.setattr(tracer_module, "row_residuals", counted_rows)
    monkeypatch.setattr(integrator_module.Steps, "dense", counted_dense)
    monkeypatch.setattr(integrator_module.Steps, "values", counted_values)
    monkeypatch.setattr(engine_module, "_line_fit", counted_line_fit)
    prof = engine.compute_profile(mid)
    assert _profile_bytes(prof) == want
    # the residual of its crossing step's partial row and the dense output
    # of that one step: the grid's and the whole steps' rows are the
    # orbit's; and its own decay, the lines of U and Theta on its window
    # rows
    assert sum(residual_rows) <= 1 and len(dense_steps) <= 1
    assert fits == [prof.metrics["decay"].n_tail] * 2


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
