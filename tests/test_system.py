import math

import numpy as np
import pytest

from inflow_layer import (DomainError, EndState, GasParams, PhasePoint, Region,
                          build_system, field_exact, field_poly, jacobian,
                          nullcline_h1, nullcline_h2, region_contains)
from conftest import random_system


@pytest.fixture(scope="module")
def s_sub(gas, right_subsonic):
    return build_system(gas, right_subsonic)


@pytest.fixture(scope="module")
def s_trans(gas, right_transonic):
    return build_system(gas, right_transonic)


class TestBuildSystem:
    def test_canonical_subsonic_matrix(self, s_sub):
        # hand substitution: M+^2 gamma = 1 makes A11 vanish
        assert s_sub.A11 == pytest.approx(0.0, abs=1e-15)
        assert s_sub.A12 == 1.0
        assert s_sub.A21 == 1.0
        assert s_sub.A22 == pytest.approx(2.5, rel=1e-14)
        assert s_sub.alpha1 == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert s_sub.alpha2 == pytest.approx(8.0 / 9.0, rel=1e-13)
        assert s_sub.det_A == pytest.approx(-1.0, rel=1e-13)
        assert s_sub.sigma_minus == -1.0
        assert s_sub.p_plus == 1.0

    def test_transonic_equilibria_coincide(self, s_trans):
        assert s_trans.alpha1 == pytest.approx(1.0, rel=1e-13)
        assert s_trans.alpha2 == pytest.approx(1.0, rel=1e-13)

    def test_supersonic_det_tr(self, gas, right_supersonic):
        s = build_system(gas, right_supersonic)
        assert s.det_A == pytest.approx(6.5, rel=1e-13)
        assert s.tr_A == pytest.approx(6.5, rel=1e-13)

    def test_rejects_nonpositive_far_velocity(self, gas):
        with pytest.raises(DomainError):
            build_system(gas, EndState(1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            build_system(gas, EndState(1.0, -1.0, 1.0))

    def test_matrix_entry_identities(self, rng):
        # A12 = R/mu, A22 = R u+ / (kappa (gamma-1)), A21 kappa = R theta+
        for _ in range(100):
            s = random_system(rng)
            g = s.gas
            assert s.A12 == pytest.approx(g.R / g.mu, rel=1e-14)
            assert s.A22 == pytest.approx(
                g.R * s.u_plus / (g.kappa * (g.gamma - 1.0)), rel=1e-14)
            assert s.A21 * g.kappa == pytest.approx(g.R * s.theta_plus, rel=1e-12)

    def test_alpha2_sign_boundary(self, rng):
        # alpha2 <= 0 exactly when M+ <= sqrt((gamma-1)/(2 gamma))
        for _ in range(300):
            s = random_system(rng)
            m_star = math.sqrt((s.gas.gamma - 1.0) / (2.0 * s.gas.gamma))
            assert (s.alpha2 <= 0.0) == (s.mach_plus <= m_star)
        # at the exact boundary the secondary equilibrium sits on theta = 0
        g = GasParams(1.4, 1.0, 1.0, 1.0)
        m_star = math.sqrt(0.4 / 2.8)
        s = build_system(g, EndState(1.0, m_star * math.sqrt(1.4), 1.0))
        assert s.alpha2 == pytest.approx(0.0, abs=1e-12)


class TestFieldForms:
    def test_equilibrium_s1(self, s_sub):
        assert field_exact(s_sub.s1.u, s_sub.s1.theta, s_sub) == (0.0, 0.0)
        assert field_poly(s_sub.s1.u, s_sub.s1.theta, s_sub) == (0.0, 0.0)

    def test_equilibrium_s2(self, s_sub):
        fu, fth = field_poly(s_sub.s2.u, s_sub.s2.theta, s_sub)
        assert abs(fu) < 1e-14 and abs(fth) < 1e-14
        fu, fth = field_exact(s_sub.s2.u, s_sub.s2.theta, s_sub)
        assert abs(fu) < 1e-14 and abs(fth) < 1e-14

    def test_origin_is_polynomial_equilibrium(self, s_sub):
        assert field_poly(0.0, 0.0, s_sub) == (0.0, 0.0)

    def test_rational_form_rejects_nonpositive_u(self, s_sub):
        with pytest.raises(DomainError):
            field_exact(0.0, 1.0, s_sub)
        with pytest.raises(DomainError):
            field_exact(-0.5, 1.0, s_sub)

    def test_hand_evaluated_point(self, s_sub):
        # du = 1, dth = 0: U' = F1 + A11 = 1; the quadratic and cubic parts
        # of F2 cancel, leaving Theta' = A21 = 1
        assert field_poly(2.0, 1.0, s_sub) == pytest.approx((1.0, 1.0))
        assert field_exact(2.0, 1.0, s_sub) == pytest.approx((1.0, 1.0))

    def test_cross_evaluation_point(self, s_sub):
        a = field_exact(0.5, 1.2, s_sub)
        b = field_poly(0.5, 1.2, s_sub)
        assert a == pytest.approx(b, rel=1e-13)

    def test_forms_agree_on_random_points(self, rng):
        for _ in range(20):
            s = random_system(rng)
            u = rng.uniform(1e-3, 3.0, 500) * s.u_plus
            th = rng.uniform(1e-3, 3.0, 500) * s.theta_plus
            eu, eth = field_exact(u, th, s)
            pu, pth = field_poly(u, th, s)
            scale_u = np.maximum(np.abs(eu), 1.0)
            scale_t = np.maximum(np.abs(eth), 1.0)
            assert np.max(np.abs(eu - pu) / scale_u) < 1e-12
            assert np.max(np.abs(eth - pth) / scale_t) < 1e-12

    def test_sign_laws(self, rng):
        for _ in range(300):
            s = random_system(rng)
            assert np.sign(s.det_A) == np.sign(s.mach_plus ** 2 - 1.0)
            if s.mach_plus >= 1.0:
                assert s.tr_A > 0.0


class TestJacobian:
    def test_equals_matrix_at_s1(self, s_sub):
        assert np.allclose(jacobian(s_sub.s1, s_sub), s_sub.matrix, atol=1e-15)

    def test_finite_difference_oracle(self, rng):
        for _ in range(4):
            s = random_system(rng)
            for _ in range(25):
                u = rng.uniform(0.1, 2.0) * s.u_plus
                th = rng.uniform(0.1, 2.0) * s.theta_plus
                J = jacobian(PhasePoint(u, th), s)
                h = 1e-6 * s.scale
                fd = np.empty((2, 2))
                fu1, ft1 = field_poly(u + h, th, s)
                fu0, ft0 = field_poly(u - h, th, s)
                fd[0, 0] = (fu1 - fu0) / (2 * h)
                fd[1, 0] = (ft1 - ft0) / (2 * h)
                fu1, ft1 = field_poly(u, th + h, s)
                fu0, ft0 = field_poly(u, th - h, s)
                fd[0, 1] = (fu1 - fu0) / (2 * h)
                fd[1, 1] = (ft1 - ft0) / (2 * h)
                scale = np.maximum(np.abs(J), 1.0)
                assert np.max(np.abs(J - fd) / scale) < 1e-6

    def test_positive_cross_partials_at_s2(self, s_sub):
        J = jacobian(s_sub.s2, s_sub)
        assert J[0, 1] > 0.0
        assert J[1, 0] > 0.0


class TestNullclines:
    def test_both_pass_through_s1(self, s_sub, s_trans):
        for s in (s_sub, s_trans):
            assert float(nullcline_h1(s.u_plus, s)) == pytest.approx(s.theta_plus)
            assert float(nullcline_h2(s.u_plus, s)) == pytest.approx(s.theta_plus)

    def test_canonical_closed_forms(self, s_sub):
        u = np.linspace(-0.5, 2.0, 41)
        assert np.allclose(nullcline_h1(u, s_sub), 1.0 - (u - 1.0) ** 2, atol=1e-14)
        assert np.allclose(nullcline_h2(u, s_sub), 0.2 * (u - 1.0) * (u - 3.0) + 1.0,
                           atol=1e-14)

    def test_intersection_at_s2(self, s_sub):
        u2 = 4.0 / 3.0
        assert float(nullcline_h1(u2, s_sub)) == pytest.approx(8.0 / 9.0, rel=1e-13)
        assert float(nullcline_h2(u2, s_sub)) == pytest.approx(8.0 / 9.0, rel=1e-13)

    def test_first_component_vanishes_on_h1(self, rng):
        for _ in range(4):
            s = random_system(rng)
            u = rng.uniform(0.05, 2.0, 25) * s.u_plus
            fu, _ = field_poly(u, nullcline_h1(u, s), s)
            assert np.max(np.abs(fu)) < 1e-12 * max(1.0, s.scale) ** 3

    def test_second_component_vanishes_on_h2(self, rng):
        for _ in range(4):
            s = random_system(rng)
            u = rng.uniform(0.05, 2.0, 25) * s.u_plus
            _, fth = field_poly(u, nullcline_h2(u, s), s)
            assert np.max(np.abs(fth)) < 1e-12 * max(1.0, s.scale) ** 3


class TestRegions:
    def test_s1_on_boundary_of_both(self, s_sub):
        assert not region_contains(s_sub.s1, Region.REGION_I, s_sub)
        assert not region_contains(s_sub.s1, Region.REGION_II, s_sub)

    def test_region_one_example(self, s_sub):
        # h1(0.5) = 0.75 < 1.2 < h2(0.5) = 1.25
        assert region_contains(PhasePoint(0.5, 1.2), Region.REGION_I, s_sub)
        assert not region_contains(PhasePoint(0.5, 1.3), Region.REGION_I, s_sub)

    def test_region_two_example(self, s_sub):
        # h2(1.2) = 0.928 < 0.95 < h1(1.2) = 0.96: the bounds swap sides here
        assert float(nullcline_h1(1.2, s_sub)) == pytest.approx(0.96)
        assert float(nullcline_h2(1.2, s_sub)) == pytest.approx(0.928)
        assert region_contains(PhasePoint(1.2, 0.95), Region.REGION_II, s_sub)
        assert not region_contains(PhasePoint(1.2, 0.97), Region.REGION_II, s_sub)

    def test_region_two_requires_subsonic(self, gas, right_supersonic):
        s = build_system(gas, right_supersonic)
        with pytest.raises(DomainError):
            region_contains(PhasePoint(1.5, 1.0), Region.REGION_II, s)

    def test_boundary_tangent_vectors(self, s_sub):
        # on l1 the field points straight down; on l2 straight right
        u = np.linspace(0.05, 0.95, 19) * s_sub.u_plus
        fu, fth = field_poly(u, nullcline_h1(u, s_sub), s_sub)
        assert np.max(np.abs(fu)) < 1e-13
        assert np.all(fth <= 0.0)
        fu, fth = field_poly(u, nullcline_h2(u, s_sub), s_sub)
        assert np.max(np.abs(fth)) < 1e-13
        assert np.all(fu >= 0.0)

    def test_interior_signs(self, s_sub):
        # Region I flows right and down; Region II left and up
        for u in np.linspace(0.1, 0.9, 9):
            lo, hi = sorted([float(nullcline_h1(u, s_sub)), float(nullcline_h2(u, s_sub))])
            for th in np.linspace(lo, hi, 7)[1:-1]:
                fu, fth = field_poly(u, th, s_sub)
                assert fu > 0.0 and fth < 0.0
        for u in np.linspace(1.02, 4.0 / 3.0 - 0.02, 9):
            lo, hi = sorted([float(nullcline_h1(u, s_sub)), float(nullcline_h2(u, s_sub))])
            for th in np.linspace(lo, hi, 7)[1:-1]:
                fu, fth = field_poly(u, th, s_sub)
                assert fu < 0.0 and fth > 0.0

    def test_no_interior_zeros(self, s_sub):
        # away from the corner equilibria the field magnitude stays positive
        for u_grid, region in [
            (np.linspace(0.03, 0.97, 60), Region.REGION_I),
            (np.linspace(1.01, 4.0 / 3.0 - 0.01, 60), Region.REGION_II),
        ]:
            min_mag = np.inf
            for u in u_grid:
                lo, hi = sorted([float(nullcline_h1(u, s_sub)),
                                 float(nullcline_h2(u, s_sub))])
                ths = np.linspace(lo, hi, 40)[3:-3]
                if len(ths) == 0:
                    continue
                fu, fth = field_poly(np.full_like(ths, u), ths, s_sub)
                pts_ok = np.array([region_contains(PhasePoint(u, t), region, s_sub)
                                   for t in ths])
                mags = np.abs(fu) + np.abs(fth)
                if pts_ok.any():
                    min_mag = min(min_mag, float(np.min(mags[pts_ok])))
            assert min_mag > 1e-6
