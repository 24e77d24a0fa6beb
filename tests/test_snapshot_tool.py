"""``tools/snapshot.py --compare``, the check that a refactor moved no
output bit, on hand-written snapshot files."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot.py"


@pytest.fixture(scope="module")
def snapshot_tool():
    spec = importlib.util.spec_from_file_location("snapshot_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = {"ladder/a/gamma1": {"terminal": "hit_u_axis", "seed_offset": "float:0x1.0p-20"},
        "sweep/000": {"regime": "subsonic"},
        "portrait/sonic": "sha256:00ff"}


def _compare(tool, tmp_path, a: dict, b: dict) -> int:
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return tool.main(["--compare", str(pa), str(pb)])


def test_identical_files_pass(snapshot_tool, tmp_path, capsys):
    assert _compare(snapshot_tool, tmp_path, BASE, dict(BASE)) == 0
    assert capsys.readouterr().out.splitlines() == ["0 differing keys"]


def test_changed_key_is_listed(snapshot_tool, tmp_path, capsys):
    changed = dict(BASE, **{"ladder/a/gamma1": {"terminal": "hit_u_axis",
                                                "seed_offset": "float:0x1.0p-19"}})
    assert _compare(snapshot_tool, tmp_path, BASE, changed) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ladder/a/gamma1",
        "float seed_offset: 1 keys, largest relative change 1.00e+00",
        "1 differing keys"]


def test_moved_floats_are_summed_up_per_field_name(snapshot_tool, tmp_path, capsys):
    def case(rate, amplitude, sha):
        return {"profile": {"metrics": {"decay": {"rate": rate, "amplitude": amplitude,
                                                  "n_tail": "int:112"}},
                            "xi": {"sha256": sha}}}

    one, half, three = ((1.0).hex(), (0.5).hex(), (3.0).hex())
    a = {"query_mix/0/000": case(f"float:{one}", f"float:{one}", "aa"),
         "query_mix/0/001": case(f"float:{one}", f"float:{half}", "bb"),
         "sigma_gap/1e-07": f"float64:{one}"}
    b = {"query_mix/0/000": case(f"float:{(1.0 + 2.0 ** -52).hex()}", f"float:{one}", "cc"),
         "query_mix/0/001": case(f"float:{three}", f"float:{one}", "bb"),
         "sigma_gap/1e-07": f"float64:{half}"}
    assert _compare(snapshot_tool, tmp_path, a, b) == 1
    # a hash that moved is a differing key, but no float field
    assert capsys.readouterr().out.splitlines() == [
        "query_mix/0/000", "query_mix/0/001", "sigma_gap/1e-07",
        "float amplitude: 1 keys, largest relative change 1.00e+00",
        "float rate: 2 keys, largest relative change 2.00e+00",
        "float sigma_gap/1e-07: 1 keys, largest relative change 5.00e-01",
        "3 differing keys"]


@pytest.mark.parametrize("side", ["a", "b"])
def test_key_in_one_file_is_listed(snapshot_tool, tmp_path, capsys, side):
    more = dict(BASE, **{"sweep/001": {"regime": "sonic"}})
    a, b = (more, BASE) if side == "a" else (BASE, more)
    assert _compare(snapshot_tool, tmp_path, a, b) == 1
    assert capsys.readouterr().out.splitlines() == ["sweep/001", "1 differing keys"]


def test_integrate_section_has_one_row_per_step(snapshot_tool):
    # the tool reads IntegrationResult itself, so a change there fails here
    # and not only in a --compare between two checkouts
    runs = snapshot_tool._integrations(snapshot_tool._load_workloads())
    assert runs and all(key.startswith("integrate/") for key in runs)
    assert snapshot_tool.DENSE_FRACTIONS[0] == 0.0
    for key, run in runs.items():
        n, bounds, dense = run["n_steps"], run["bounds"], run["dense"]
        assert len(bounds) == n and dense.shape == (n, len(snapshot_tool.DENSE_FRACTIONS), 2)
        snapshot_tool.encode(run)
        if not n:
            continue
        # the steps tile the run from xi = 0, each starting at an emitted
        # point, where its dense value at fraction 0 is that point
        assert bounds[0, 0] == 0.0 and np.array_equal(bounds[1:, 0], bounds[:-1, 1]), key
        xi, sign = run["xi"], np.sign(run["xi"][-1])
        at = np.searchsorted(sign * xi, sign * bounds[:, 0])
        assert np.array_equal(xi[at], bounds[:, 0]), key
        assert run["points"][at].tobytes() == dense[:, 0].tobytes(), key


def test_grid_edges_lie_inside_the_graph_radius(snapshot_tool):
    # the section pins the inner grid's first-panel rule only while its
    # boundaries are inside r*, where no orbit stop is made
    from inflow_layer import ExistenceEngine

    wl = snapshot_tool._load_workloads()
    for right in (wl.CANONICAL, wl.THETA_AXIS, wl.SONIC):
        for curve in ExistenceEngine().curves_for(wl.GAS, right).values():
            ws = snapshot_tool.grid_edges(curve)
            assert len(ws) == len(set(ws)) == 19
            assert all(0.0 < w / curve.orbit.w_start < 1.0 for w in ws)
            params = curve.graph.points(np.array(ws))[:, curve.param_index]
            assert not any(curve.beyond_graph(p) for p in params)


def test_decay_edges_straddle_the_first_window_row(snapshot_tool):
    # inside r*, the boundaries join the inner grid one row before, at and
    # one row after its first row in the decay window
    from inflow_layer import ExistenceEngine
    from inflow_layer.engine import tail_rows

    wl = snapshot_tool._load_workloads()
    for curve in ExistenceEngine().curves_for(wl.GAS, wl.CANONICAL).values():
        orbit, pidx = curve.orbit, curve.param_index
        grid = orbit.grid()
        first = int(np.argmax(tail_rows(np.cumsum(grid.flights), grid.rows[:, 0],
                                        curve.system)))
        ws = snapshot_tool.decay_edges(curve)
        assert len(ws) == len(snapshot_tool.DECAY_EDGE_NODES) == 3
        for k, w in zip(snapshot_tool.DECAY_EDGE_NODES, ws):
            assert 0.0 < w / orbit.w_start < 1.0
            assert orbit.first_row(w) == first + k
            param = float(curve.graph.points(w)[pidx])
            assert not curve.beyond_graph(param)
