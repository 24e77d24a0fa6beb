import math
import xml.etree.ElementTree as ET

import pytest

from inflow_layer import EndState, ExistenceEngine, build_system, render_portrait
from inflow_layer.gas import TOL_MACH


def _by_id(root, ident):
    el = root.find(f".//*[@id='{ident}']")
    assert el is not None, f"missing element {ident}"
    return el


def _parse(svg_text):
    return ET.fromstring(svg_text)


@pytest.fixture(scope="module")
def svg_subsonic(gas, right_subsonic, subsonic_curves, tmp_path_factory):
    s = build_system(gas, right_subsonic)
    path = tmp_path_factory.mktemp("svg") / "subsonic.svg"
    text = render_portrait(s, subsonic_curves, path=path)
    return text, path


class TestSubsonicPortrait:
    def test_well_formed_and_written(self, svg_subsonic):
        text, path = svg_subsonic
        root = _parse(text)
        assert root.tag.endswith("svg")
        assert path.read_text() == text

    def test_equilibrium_markers(self, svg_subsonic):
        root = _parse(svg_subsonic[0])
        s1 = _by_id(root, "eq-S1")
        assert float(s1.get("data-u")) == 1.0
        assert float(s1.get("data-theta")) == 1.0
        s2 = _by_id(root, "eq-S2")
        assert float(s2.get("data-u")) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert float(s2.get("data-theta")) == pytest.approx(8.0 / 9.0, rel=1e-12)
        origin = _by_id(root, "eq-O")
        assert float(origin.get("data-u")) == 0.0

    def test_curve_endpoints(self, svg_subsonic, subsonic_curves):
        root = _parse(svg_subsonic[0])
        g1 = _by_id(root, "curve-gamma1")
        assert g1.get("data-terminal") == "hit_u_axis"
        assert float(g1.get("data-u-start")) == 1.0
        assert abs(float(g1.get("data-u-end"))) <= 1e-10
        g2 = _by_id(root, "curve-gamma2")
        assert g2.get("data-terminal") == "converged_to_s2"
        assert float(g2.get("data-u-end")) == pytest.approx(4.0 / 3.0, rel=1e-4)
        assert float(g2.get("data-theta-end")) == pytest.approx(8.0 / 9.0, rel=1e-4)

    def test_structural_elements_present(self, svg_subsonic):
        root = _parse(svg_subsonic[0])
        for ident in ("nullcline-h1", "nullcline-h2", "boundary-l1", "boundary-l2",
                      "boundary-l3", "boundary-l4", "boundary-l5", "axis-u",
                      "axis-theta", "label-u", "label-theta"):
            _by_id(root, ident)
        trajectories = [el for el in root.iter() if el.get("class") == "trajectory"]
        assert len(trajectories) >= 4


class TestTransonicPortrait:
    def test_sigma_topology(self, gas, right_transonic, transonic_curves):
        s = build_system(gas, right_transonic)
        root = _parse(render_portrait(s, transonic_curves))
        sig = _by_id(root, "curve-sigma")
        assert sig.get("data-terminal") == "hit_u_axis"
        assert float(sig.get("data-u-start")) == pytest.approx(math.sqrt(1.4), rel=1e-12)
        assert abs(float(sig.get("data-u-end"))) <= 1e-9
        theta_end = float(sig.get("data-theta-end"))
        assert 1.0 < theta_end < 1.68
        # S1 and S2 coincide at Mach 1: no separate S2 marker
        assert root.find(".//*[@id='eq-S2']") is None
        for ident in ("boundary-l1", "boundary-l2", "boundary-l3"):
            _by_id(root, ident)
        assert root.find(".//*[@id='boundary-l4']") is None


@pytest.mark.parametrize("gap, tol_M", [(5e-9, TOL_MACH), (5e-4, 1e-3)])
def test_regime_is_the_runs(gas, gap, tol_M):
    # M+ just below 1 but inside the run's sonic band: the far field is
    # traced as sonic, so S2 has merged into S1 and Region II is gone
    right = EndState(1.0, (1.0 - gap) * math.sqrt(1.4), 1.0)
    curves = ExistenceEngine().curves_for(gas, right, tol_M)
    assert list(curves) == ["sigma"]
    root = _parse(render_portrait(build_system(gas, right), curves, n_trajectories=0))
    for ident in ("eq-S2", "boundary-l4", "boundary-l5"):
        assert root.find(f".//*[@id='{ident}']") is None, ident


class TestSubcaseBPortrait:
    def test_gamma2_reaches_theta_axis(self, gas, right_subcase_b, subcase_b_curves):
        s = build_system(gas, right_subcase_b)
        root = _parse(render_portrait(s, subcase_b_curves))
        g2 = _by_id(root, "curve-gamma2")
        assert g2.get("data-terminal") == "hit_theta_axis"
        assert abs(float(g2.get("data-theta-end"))) <= 1e-10
        u_end = float(g2.get("data-u-end"))
        assert right_subcase_b.u < u_end < s.alpha1 * right_subcase_b.u
