import math

import pytest
from hypothesis import given, strategies as st

from inflow_layer import (EndState, GasParams, InvalidBoundary,
                          check_flux_condition, classify_regime, mach,
                          pressure)

_VALID = {GasParams: dict(gamma=1.4, R=1.0, mu=1.0, kappa=1.0),
          EndState: dict(v=1.0, u=1.0, theta=1.0)}


class TestConstruction:
    def test_gas_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            GasParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GasParams(1.4, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GasParams(1.4, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GasParams(1.4, 1.0, 1.0, -2.0)

    def test_end_state_rejects_nonpositive_v_theta(self):
        with pytest.raises(ValueError):
            EndState(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            EndState(1.0, 1.0, -0.5)
        # negative velocity is allowed (outflow far fields are representable)
        EndState(1.0, -1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, field", [(cls, name) for cls, kw in _VALID.items()
                                            for name in kw])
    def test_rejects_non_finite(self, cls, field, bad):
        with pytest.raises(ValueError, match="finite"):
            cls(**{**_VALID[cls], field: bad})


class TestPressure:
    def test_unit_values(self, gas):
        assert pressure(EndState(1.0, 0.0, 1.0), gas) == 1.0

    def test_direct_ratio(self, gas):
        assert pressure(EndState(2.0, 0.0, 1.0), gas) == 0.5

    def test_physical_gas_constant(self):
        g = GasParams(1.4, 8.314, 1.0, 1.0)
        assert pressure(EndState(1.0, 0.0, 1.0), g) == 8.314


class TestMach:
    def test_sonic_by_construction(self, gas):
        state = EndState(1.0, math.sqrt(1.4), 1.0)
        assert mach(state, gas) == pytest.approx(1.0, rel=1e-15)

    def test_hand_substitution(self, gas):
        assert mach(EndState(1.0, 1.0, 1.0), gas) == pytest.approx(
            1.0 / math.sqrt(1.4), rel=1e-14)
        assert mach(EndState(1.0, 2.0, 1.0), gas) == pytest.approx(
            2.0 / math.sqrt(1.4), rel=1e-14)

    def test_sign_insensitive(self, gas):
        assert mach(EndState(1.0, -2.0, 1.0), gas) == mach(EndState(1.0, 2.0, 1.0), gas)


class TestRegime:
    def test_band_center(self):
        assert classify_regime(1.0, 1e-8).is_transonic

    def test_subsonic_value(self):
        assert classify_regime(1.0 / math.sqrt(1.4), 1e-8).is_subsonic

    def test_supersonic_value(self):
        assert classify_regime(2.0 / math.sqrt(1.4), 1e-8).is_supersonic

    def test_band_edges(self):
        assert classify_regime(1.0 + 1e-8, 1e-8).is_transonic
        assert classify_regime(1.0 + 1.0000001e-8, 1e-8).is_supersonic
        assert classify_regime(1.0 - 2e-8, 1e-8).is_subsonic

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_partition(self, m):
        r = classify_regime(m, 1e-8)
        assert sum([r.is_subsonic, r.is_transonic, r.is_supersonic]) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_regime(-0.1)
        with pytest.raises(ValueError):
            classify_regime(1.0, tol_M=0.7)


class TestFluxCondition:
    def test_identical_states(self):
        chk = check_flux_condition(EndState(1.0, 1.0, 1.0), EndState(1.0, 1.0, 1.0))
        assert chk.ok and chk.sigma_minus == -1.0

    def test_proportional_states(self):
        chk = check_flux_condition(EndState(2.0, 2.0, 1.0), EndState(1.0, 1.0, 1.0))
        assert chk.ok and chk.sigma_minus == -1.0

    def test_mismatch_gap(self):
        chk = check_flux_condition(EndState(1.0, 1.0, 1.0), EndState(1.0, 0.5, 1.0))
        assert not chk.ok
        assert chk.gap == pytest.approx(0.5, rel=1e-15)

    def test_rejects_outflow(self):
        with pytest.raises(InvalidBoundary):
            check_flux_condition(EndState(1.0, -1.0, 1.0), EndState(1.0, 1.0, 1.0))
        with pytest.raises(InvalidBoundary):
            check_flux_condition(EndState(1.0, 0.0, 1.0), EndState(1.0, 1.0, 1.0))

    def test_sigma_minus_always_negative(self, rng):
        for _ in range(200):
            left = EndState(rng.uniform(0.1, 10), rng.uniform(0.01, 10), rng.uniform(0.1, 10))
            right = EndState(rng.uniform(0.1, 10), rng.uniform(-10, 10), rng.uniform(0.1, 10))
            assert check_flux_condition(left, right).sigma_minus < 0.0

    def test_ok_implies_positive_u_plus(self, rng):
        # under the flux identity with u- > 0, the far-field velocity is positive
        for _ in range(200):
            v_m = rng.uniform(0.1, 10)
            u_m = rng.uniform(0.01, 10)
            v_p = rng.uniform(0.1, 10)
            u_p = u_m / v_m * v_p
            chk = check_flux_condition(EndState(v_m, u_m, 1.0), EndState(v_p, u_p, 1.0))
            assert chk.ok
            assert u_p > 0.0
