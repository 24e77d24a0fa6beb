"""``tools/snapshot.py --compare``, the check that a refactor moved no
output bit, on hand-written snapshot files."""

import importlib.util
import json
from pathlib import Path

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
    assert capsys.readouterr().out.splitlines() == ["ladder/a/gamma1", "1 differing keys"]


@pytest.mark.parametrize("side", ["a", "b"])
def test_key_in_one_file_is_listed(snapshot_tool, tmp_path, capsys, side):
    more = dict(BASE, **{"sweep/001": {"regime": "sonic"}})
    a, b = (more, BASE) if side == "a" else (BASE, more)
    assert _compare(snapshot_tool, tmp_path, a, b) == 1
    assert capsys.readouterr().out.splitlines() == ["sweep/001", "1 differing keys"]
