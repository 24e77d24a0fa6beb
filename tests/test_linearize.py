import math

import numpy as np
import pytest

from inflow_layer import (DefectiveMatrix, DomainError, EndState, GasParams,
                          TraceOptions, build_system, eigen_2x2, field_poly,
                          linearize, saddle_graph, transonic_frame)
from inflow_layer.gas import TOL_MACH
from inflow_layer.linearize import GRAPH_ORDER, _derivative, _product_coef
from inflow_layer.system import field_nonlinear
from inflow_layer.tracer import _certified_radii
from conftest import random_system
from degenerate import DegenerateKind, FitAmbiguous, classify_degenerate
import graph_reference
from graph_reference import Series, reference_graph
from sonic_reference import closed_form, graph_defect, w_equations


@pytest.fixture(scope="module")
def s_sub(gas, right_subsonic):
    return build_system(gas, right_subsonic)


@pytest.fixture(scope="module")
def s_trans(gas, right_transonic):
    return build_system(gas, right_transonic)


@pytest.fixture(scope="module")
def frame(s_trans):
    return transonic_frame(s_trans)


class TestEigen2x2:
    def test_diagonal(self):
        eig = eigen_2x2(np.diag([2.0, 3.0]))
        assert (eig.lambda1, eig.lambda2) == (3.0, 2.0)
        assert np.allclose(eig.e1, [0.0, 1.0])
        assert np.allclose(eig.e2, [1.0, 0.0])

    def test_canonical_subsonic(self, s_sub):
        eig = eigen_2x2(s_sub.matrix)
        root = math.sqrt(10.25)
        assert eig.lambda1 == pytest.approx((2.5 + root) / 2.0, rel=1e-12)
        assert eig.lambda2 == pytest.approx((2.5 - root) / 2.0, rel=1e-12)

    def test_canonical_supersonic(self, gas, right_supersonic):
        s = build_system(gas, right_supersonic)
        eig = eigen_2x2(s.matrix)
        root = math.sqrt(6.5 ** 2 - 4.0 * 6.5)
        assert eig.lambda1 == pytest.approx((6.5 + root) / 2.0, rel=1e-12)
        assert eig.lambda2 == pytest.approx((6.5 - root) / 2.0, rel=1e-12)
        assert eig.lambda2 > 0.0

    def test_eigen_residual_and_normalization(self, rng):
        for _ in range(300):
            s = random_system(rng)
            A = s.matrix
            eig = eigen_2x2(A)
            norm = max(1.0, float(np.max(np.abs(A))))
            for lam, v in ((eig.lambda1, eig.e1), (eig.lambda2, eig.e2)):
                assert np.linalg.norm(A @ v - lam * v) <= 1e-12 * norm * 10
                assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
                lead = v[0] if abs(v[0]) > 1e-12 else v[1]
                assert lead > 0.0

    def test_discriminant_nonnegative_for_valid_systems(self, rng):
        for _ in range(300):
            s = random_system(rng)
            assert s.tr_A ** 2 - 4.0 * s.det_A >= 0.0

    def test_identity_multiple(self):
        eig = eigen_2x2(2.0 * np.eye(2))
        assert eig.lambda1 == eig.lambda2 == 2.0
        assert np.allclose(eig.e1, [1.0, 0.0]) and np.allclose(eig.e2, [0.0, 1.0])

    def test_jordan_block_is_defective(self):
        with pytest.raises(DefectiveMatrix):
            eigen_2x2(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_complex_spectrum_rejected(self):
        with pytest.raises(DomainError):
            eigen_2x2(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestTransonicFrame:
    # the frame is the center-manifold graph: lam_fast is lambda2, e_slow =
    # (1, m1), e_fast = (1, m2), and flow[2] the reduced flow's a2
    def test_lambda2_closed_form(self, frame, s_trans):
        expected = (0.4 / 1.4 + 1.0 / 0.4) * math.sqrt(1.4)
        assert frame.lam_fast == pytest.approx(expected, rel=1e-14)

    def test_matches_generic_eigensolver(self, frame, s_trans):
        eig = eigen_2x2(s_trans.matrix)
        assert abs(eig.lambda2) <= 1e-10 * s_trans.scale
        assert eig.lambda1 == pytest.approx(frame.lam_fast, rel=1e-10)

    def test_diagonalization(self, frame, s_trans):
        D = frame.P_inv @ s_trans.matrix @ np.column_stack([frame.e_fast, frame.e_slow])
        target = np.diag([frame.lam_fast, 0.0])
        assert np.max(np.abs(D - target)) < 1e-12 * max(1.0, frame.lam_fast)

    def test_a2_closed_form(self, frame):
        assert frame.flow[2] == pytest.approx(14.0 / 13.0, rel=1e-14)

    def test_center_slope_equals_tangent_slope(self, frame, s_trans):
        expected = -0.4 * math.sqrt(1.4) / 1.4
        assert frame.e_slow[1] == pytest.approx(expected, rel=1e-14)

    def test_manifold_coefficient_closed_form(self, frame, s_trans):
        up = s_trans.u_plus
        b2 = (0.4 * up / 1.4 - up / 2.0) / (frame.e_fast[1] - frame.e_slow[1])
        assert frame.h[2] == pytest.approx(-b2 / frame.lam_fast, rel=1e-12)

    @pytest.mark.parametrize("gas_params", [(1.4, 1.0, 1.0, 1.0),
                                            (1.67, 2.0, 0.3, 1.7),
                                            (1.2, 0.5, 3.0, 0.4)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_cubic_manifold_invariance_defect(self, gas_params, side):
        # with the right c2 and c3 the invariance defect of the cubic graph
        # is O(|W1|^4); a wrong c3 leaves an O(|W1|^3) term
        g = GasParams(*gas_params)
        s = build_system(g, EndState(1.0, math.sqrt(g.R * g.gamma), 1.0))
        ref = closed_form(s)
        g1, g2 = w_equations(transonic_frame(s))

        def scaled_defect(w):
            h = (ref.c2 + ref.c3 * w) * w * w
            slope = (2.0 * ref.c2 + 3.0 * ref.c3 * w) * w
            d = ref.lambda2 * h + float(g2(w, h)) - slope * float(g1(w, h))
            return d / w ** 4

        ratio = scaled_defect(side * 1e-3) / scaled_defect(side * 1e-2)
        assert 1.0 / 1.5 < ratio < 1.5

    def test_rejects_non_transonic(self, s_sub):
        with pytest.raises(DomainError):
            transonic_frame(s_sub)


GASES = [(1.4, 1.0, 1.0, 1.0), (1.67, 2.0, 0.3, 1.7), (1.2, 0.5, 3.0, 0.4)]
SOUND = math.sqrt(1.4)


def _subsonic_graph(mach: float):
    s = build_system(GasParams(1.4, 1.0, 1.0, 1.0), EndState(1.0, mach * SOUND, 1.0))
    return s, saddle_graph(s, eigen_2x2(s.matrix))


def _trace_tol(s):
    opts = TraceOptions()
    return opts.abs_tol + opts.rel_tol * s.scale


class TestSlowGraph:
    @pytest.mark.parametrize("gas_params", GASES)
    def test_reproduces_the_sonic_closed_form(self, gas_params):
        # on the sonic frame (slow rate 0, fast rate lambda2) the recursion
        # must give the closed-form c2 and c3
        g = GasParams(*gas_params)
        s = build_system(g, EndState(1.0, math.sqrt(g.R * g.gamma), 1.0))
        ref = closed_form(s)
        graph = transonic_frame(s)
        assert (graph.lam_fast, graph.lam_slow) == (ref.lambda2, 0.0)
        assert graph.e_fast.tolist() == [1.0, ref.m2]
        assert graph.e_slow.tolist() == [1.0, ref.m1]
        assert graph.h[:2].tolist() == [0.0, 0.0]
        assert graph.h[2] == pytest.approx(ref.c2, rel=1e-12)
        assert graph.h[3] == pytest.approx(ref.c3, rel=1e-12)
        # the reduced flow starts a2 W1^2 + ...
        assert graph.flow[:2].tolist() == [0.0, 0.0]
        assert graph.flow[2] == pytest.approx(ref.a2, rel=1e-12)

    def test_reduced_flow_is_the_field_on_the_graph(self, s_sub):
        eig = eigen_2x2(s_sub.matrix)
        graph = saddle_graph(s_sub, eig)
        assert graph.flow[1] == eig.lambda2
        w = np.linspace(-0.2, 0.2, 9)
        pts = graph.points(w)
        f = np.array(field_poly(pts[:, 0], pts[:, 1], s_sub))
        np.testing.assert_allclose(graph.speed(w), (graph.P_inv @ f)[1],
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("sonic", [False, True])
    @pytest.mark.parametrize("i", [0, 1])
    def test_w_at_inverts_a_coordinate_of_the_graph(self, frame, sonic, i):
        graph = frame if sonic else _subsonic_graph(1.0 / SOUND)[1]
        s1 = np.array([graph._sys.u_plus, graph._sys.theta_plus])
        for w in (-0.1, -1e-3, -1e-7, 1e-7, 1e-3, 0.1):
            d = float((graph.points(w) - s1)[i])
            assert graph.w_at(i, d) == pytest.approx(w, rel=1e-12)
        assert graph.w_at(i, 0.0) == 0.0

    @pytest.mark.parametrize("sonic", [False, True])
    def test_velocity_is_the_field_on_the_graph(self, frame, sonic):
        # the reduced flow along the tangent h'(w) e_fast + e_slow; the field
        # differs from it by the invariance defect along e_fast
        graph = frame if sonic else _subsonic_graph(1.0 / SOUND)[1]
        w = np.linspace(-0.1, 0.1, 9)
        pts = graph.points(w)
        f = np.column_stack(field_poly(pts[:, 0], pts[:, 1], graph._sys))
        defect = np.array([graph_defect(graph, x) for x in w])
        np.testing.assert_allclose(graph.velocity(w), f - np.outer(defect, graph.e_fast),
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("mach", [1.0 / SOUND, 0.3 / SOUND, 0.99, 0.999])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_defect_within_tolerance_at_the_certified_radius(self, mach, side):
        s, graph = _subsonic_graph(mach)
        tol = _trace_tol(s)
        radii = _certified_radii(graph, side, 1e-6 * s.scale, tol, s)
        r_star = radii[-1]
        assert r_star > 0.05 * s.scale
        assert abs(graph_defect(graph, side * r_star)) <= tol * graph.lam_fast
        # the defect grows like w^(N+1): the next grid point fails
        assert (abs(graph_defect(graph, side * r_star * 10.0 ** (1 / 12)))
                > tol * graph.lam_fast)

    @pytest.mark.parametrize("sonic", [False, True])
    def test_defect_polynomial_is_the_composed_defect(self, frame, sonic):
        # the stored polynomial is the field's defect on the graph, and the
        # invariance equation zeroes it through w^N
        graph = frame if sonic else _subsonic_graph(1.0 / SOUND)[1]
        w = np.linspace(-0.1, 0.1, 21)
        np.testing.assert_allclose(graph.defect(w), [graph_defect(graph, x) for x in w],
                                   rtol=0.0, atol=1e-14)
        assert graph.defect_coef.size == 4 * GRAPH_ORDER
        assert np.max(np.abs(graph.defect_coef[:GRAPH_ORDER + 1])) < 1e-14

    @pytest.mark.parametrize("mach", [0.3 / SOUND, 1.0 / SOUND, 0.999, None])
    def test_short_series_solve_is_the_full_length_solve(self, frame, mach):
        # h_k solved on series cut after w^k, and the flow cut after w^3N,
        # keep every bit of a solve on series of the flow's full length
        graph = frame if mach is None else _subsonic_graph(mach)[1]
        s = graph._sys
        (ef0, ef1), (es0, es1) = graph.e_fast.tolist(), graph.e_slow.tolist()
        (p00, p01), (p10, p11) = graph.P_inv.tolist()
        n = 3 * GRAPH_ORDER + 1
        w = Series(np.eye(1, n, 1)[0])

        def g(h):
            z = Series(h)
            f1, f2 = field_nonlinear(z * ef0 + w * es0, z * ef1 + w * es1, s)
            return p00 * f1 + p01 * f2, p10 * f1 + p11 * f2

        h = np.zeros(n)
        for k in range(2, GRAPH_ORDER + 1):
            g_z, g_w = g(h)
            h[k] = ((g_z - Series(_derivative(h)) * g_w).c[k]
                    / (k * graph.lam_slow - graph.lam_fast))
        assert np.array_equal(graph.h, h[:GRAPH_ORDER + 1])
        assert np.array_equal(graph.flow, (graph.lam_slow * w + g(h)[1]).c)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_flight_times_near_s1_are_the_linear_ones(self, s_sub, side):
        # summed over a 12-per-decade grid from 1e-6 scale, the backward
        # flight time from the first point is log(r / r0) / |lambda2|
        graph = saddle_graph(s_sub, eigen_2x2(s_sub.matrix))
        w = side * 1e-6 * s_sub.scale * 10.0 ** (np.arange(12) / 12)
        backward = np.concatenate(([0.0], np.cumsum(-graph.flight_times(w))))
        r = np.linalg.norm(graph.points(w) - s_sub.s1.as_array(), axis=1)
        np.testing.assert_allclose(backward, np.log(r / r[0]) / -graph.lam_slow,
                                   rtol=1e-3, atol=1e-9)

    @pytest.mark.parametrize("mach", [0.99, 0.999, 1.0 - 1e-5])
    def test_graph_passes_through_s2_inside_the_radius(self, mach):
        s, graph = _subsonic_graph(mach)
        s1, s2 = s.s1.as_array(), s.s2.as_array()
        z_s2, w_s2 = graph.P_inv @ (s2 - s1)
        radii = _certified_radii(graph, 1.0, 1e-6 * s.scale, _trace_tol(s), s)
        assert 0.0 < w_s2 < radii[-1]
        z = np.polynomial.polynomial.polyval(w_s2, graph.h)
        assert abs(z - z_s2) <= _trace_tol(s)
        assert abs(graph.speed(w_s2)) <= 1e-9 * abs(graph.lam_slow) * w_s2


STIFF = GasParams(1.2728, 4.2983, 3.5278, 0.1)   # lambda1 / |lambda2| = 816 at M+ = 0.771


def _graph(s):
    """The graph a trace leaves S1 along: the center manifold of a sonic far
    field, else the stable manifold in S1's eigenframe."""
    if abs(s.mach_plus - 1.0) <= TOL_MACH:
        return transonic_frame(s)
    return saddle_graph(s, eigen_2x2(s.matrix))


def _assert_reference_bits(graph):
    ref = reference_graph(graph._sys, graph.lam_fast, graph.e_fast, graph.lam_slow,
                          graph.e_slow)
    for name in ("h", "flow", "defect_coef", "P_inv"):
        assert getattr(graph, name).tobytes() == getattr(ref, name).tobytes(), name


def _on(gas, mach, theta=1.0):
    return build_system(gas, EndState(1.0, mach * math.sqrt(gas.gamma * gas.R * theta), theta))


CANONICAL = GasParams(1.4, 1.0, 1.0, 1.0)
ORACLE_FIELDS = {
    "subsonic": _on(CANONICAL, 1.0 / SOUND),
    "sonic": _on(CANONICAL, 1.0),
    **{f"near_sonic_{gap:g}": _on(CANONICAL, 1.0 - gap)
       for gap in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)},
    "stiff_0.5": _on(STIFF, 0.5),
    "stiff_0.771": _on(STIFF, 0.771),
    "stiff_sonic": _on(STIFF, 1.0),
    "stiff_sonic_sigma": _on(GasParams(1.4241, 5.5366, 6.3002, 0.10869), 1.0, 0.3812),
}
ORACLE_ORDERS = [(name, order) for order in (GRAPH_ORDER, 6, 16) for name in ORACLE_FIELDS]


class TestGraphOracle:
    """``slow_graph`` against the k-loop composition on numpy series of
    ``graph_reference``: h, flow, defect_coef and P_inv to the last bit."""

    @pytest.mark.parametrize("name, order", ORACLE_ORDERS,
                             ids=[name if order == GRAPH_ORDER else f"{name}-order{order}"
                                  for name, order in ORACLE_ORDERS])
    def test_listed_fields(self, name, order, monkeypatch):
        # the builder and the reference both read GRAPH_ORDER when called
        monkeypatch.setattr(linearize, "GRAPH_ORDER", order)
        monkeypatch.setattr(graph_reference, "GRAPH_ORDER", order)
        graph = _graph(ORACLE_FIELDS[name])
        assert graph.h.size == order + 1 and graph.defect_coef.size == 4 * order
        _assert_reference_bits(graph)

    def test_random_fields(self):
        rng = np.random.default_rng(15)
        for regime, count in (("subsonic", 200), ("transonic", 50)):
            for _ in range(count):
                _assert_reference_bits(_graph(random_system(rng, regime=regime)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_non_finite_operand_coefficient_propagates_as_in_the_reference(self, value, m):
        # every term the reference adds with a non-finite b_m lies in the
        # product's window; the zero a_4 skips its term with b_m in both
        a = np.array([0.0, 0.5, -1.25, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.5, 0.0, -0.75, 0.25, 2.0, 0.0, 0.0, 0.0, 0.0])
        b[m] = value
        ref = (Series(a) * Series(b)).c
        # both operands hold w^1 .. w^5
        prod = [_product_coef(a.tolist(), b.tolist(), k, max(1, k - 5), min(5, k - 1))
                for k in range(a.size)]
        assert np.array(prod).tobytes() == ref.tobytes()


class TestWCoordinates:
    def test_s1_maps_to_origin(self, frame, s_trans):
        # the graph passes through S1 at w1 = 0, and P_inv inverts P
        P = np.column_stack([frame.e_fast, frame.e_slow])
        assert tuple(frame.points(0.0)) == (s_trans.u_plus, s_trans.theta_plus)
        assert np.max(np.abs(frame.P_inv @ P - np.eye(2))) < 1e-15

    def test_pushforward_matches_w_equations(self, frame, s_trans, rng):
        # P^{-1} f(P w + S1) must equal (g1, lambda2 w2 + g2), with P =
        # [(1, m1) (1, m2)] taking the slow coordinate w1 first
        P = np.column_stack([frame.e_slow, frame.e_fast])
        g1, g2 = w_equations(frame)
        for _ in range(100):
            w = rng.uniform(-0.15, 0.15, 2)
            u, theta = s_trans.s1.as_array() + P @ w
            lhs = (frame.P_inv @ np.array(field_poly(u, theta, s_trans)))[::-1]
            rhs = np.array([g1(w[0], w[1]), frame.lam_fast * w[1] + g2(w[0], w[1])])
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


class TestClassifyDegenerate:
    def test_pure_quadratic(self):
        c = classify_degenerate(lambda x, y: x * x, lambda x, y: 0.0, lam=1.0)
        assert c.m == 2
        assert c.a_m == pytest.approx(1.0, rel=1e-6)
        assert c.kind is DegenerateKind.SADDLE_NODE_NEG_AXIS

    def test_cubic_saddle(self):
        # phi(x) = -x^2 exactly, psi(x) = -x^3
        c = classify_degenerate(lambda x, y: -x ** 3, lambda x, y: x * x, lam=1.0)
        assert c.m == 3
        assert c.a_m == pytest.approx(-1.0, rel=1e-6)
        assert c.kind is DegenerateKind.SADDLE

    def test_odd_unstable_node(self):
        c = classify_degenerate(lambda x, y: x ** 3, lambda x, y: 0.0, lam=2.0)
        assert c.m == 3 and c.a_m > 0
        assert c.kind is DegenerateKind.UNSTABLE_NODE

    def test_even_positive_axis(self):
        c = classify_degenerate(lambda x, y: -x * x, lambda x, y: 0.0, lam=1.0)
        assert c.kind is DegenerateKind.SADDLE_NODE_POS_AXIS

    def test_non_integer_order_is_ambiguous(self):
        with pytest.raises(FitAmbiguous):
            classify_degenerate(lambda x, y: abs(x) ** 2.5, lambda x, y: 0.0, lam=1.0)

    def test_transonic_w_system(self, frame, s_trans):
        c = classify_degenerate(*w_equations(frame), frame.lam_fast,
                                delta=1e-2 * max(1.0, s_trans.u_plus))
        assert c.m == 2
        assert c.a_m == pytest.approx(frame.flow[2], rel=1e-2)
        assert c.kind is DegenerateKind.SADDLE_NODE_NEG_AXIS

    def test_random_transonic_sets_always_saddle_node(self, rng):
        for _ in range(15):
            s = random_system(rng, regime="transonic")
            f = transonic_frame(s)
            c = classify_degenerate(*w_equations(f), f.lam_fast,
                                    delta=1e-2 * max(1.0, s.u_plus))
            assert c.m == 2
            assert c.a_m > 0.0
            assert c.a_m == pytest.approx(f.flow[2], rel=2e-2)


class TestTangentLine:
    def test_subsonic_slope(self, s_sub):
        # the gamma branches leave S1 along the stable eigenvector e2
        eig = eigen_2x2(s_sub.matrix)
        assert eig.e2[1] / eig.e2[0] == pytest.approx(-1.0 / 2.8507810593582126, rel=1e-10)

    def test_subsonic_direction_is_stable_eigenvector(self, rng):
        # the line's direction solves A d = lambda2 d, i.e. the closed-form
        # slope -u+^2 / (m2g kappa (A22 - lambda2)) of the stable line
        for _ in range(50):
            s = random_system(rng, regime="subsonic")
            eig = eigen_2x2(s.matrix)
            slope = -s.u_plus ** 2 / (s.m2g * s.gas.kappa * (s.A22 - eig.lambda2))
            d = np.array([1.0, slope]) / math.hypot(1.0, slope)
            resid = s.matrix @ d - eig.lambda2 * d
            assert np.max(np.abs(resid)) < 1e-10 * max(1.0, float(np.max(np.abs(s.matrix))))
            assert eig.e2[1] / eig.e2[0] == pytest.approx(slope, rel=1e-9)


class TestRegimeEigenPatterns:
    def test_supersonic_both_positive(self, rng):
        for _ in range(1000):
            s = random_system(rng, regime="supersonic")
            eig = eigen_2x2(s.matrix)
            assert eig.lambda2 > 0.0

    def test_subsonic_opposite_signs(self, rng):
        for _ in range(1000):
            s = random_system(rng, regime="subsonic")
            eig = eigen_2x2(s.matrix)
            assert eig.lambda1 > 0.0 > eig.lambda2

    def test_transonic_zero_and_positive(self, rng):
        for _ in range(100):
            s = random_system(rng, regime="transonic")
            eig = eigen_2x2(s.matrix)
            f = transonic_frame(s)
            assert abs(eig.lambda2) <= 1e-10 * max(1.0, f.lam_fast)
            assert eig.lambda1 == pytest.approx(f.lam_fast, rel=1e-10)

    def test_s2_unstable_node_band(self, rng):
        # jacobian at S2 has two distinct positive eigenvalues for
        # sqrt((gamma-1)/(2 gamma)) < M+ < 1
        from inflow_layer import jacobian
        count = 0
        while count < 100:
            s = random_system(rng, regime="subsonic")
            m_star = math.sqrt((s.gas.gamma - 1.0) / (2.0 * s.gas.gamma))
            if not m_star < s.mach_plus < 1.0:
                continue
            count += 1
            eig = eigen_2x2(jacobian(s.s2, s))
            assert eig.lambda1 > eig.lambda2 > 0.0
