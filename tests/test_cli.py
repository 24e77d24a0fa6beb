import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import inflow_layer
from inflow_layer.cli import main, load_config_file, run_sweep
from inflow_layer.errors import ConfigError
from inflow_layer.gas import GasParams, classify_regime

SUBSONIC = ["--gamma", "1.4", "--R", "1", "--mu", "1", "--kappa", "1",
            "--v-plus", "1", "--u-plus", "1", "--theta-plus", "1"]
SUPERSONIC = ["--gamma", "1.4", "--R", "1", "--mu", "1", "--kappa", "1",
              "--v-plus", "1", "--u-plus", "2", "--theta-plus", "1"]


def _left(v, u, th):
    return ["--v-minus", str(v), "--u-minus", str(u), "--theta-minus", str(th)]


class TestClassify:
    def test_trivial_exists(self, capsys):
        rc = main(["classify", *SUBSONIC, *_left(1, 1, 1)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["outcome"] == "exists"
        assert out["curve"] == "trivial"

    def test_supersonic_not_exists(self, capsys):
        rc = main(["classify", *SUPERSONIC, *_left(0.5, 1, 1.3)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["reason"] == "supersonic"
        assert out["regime"] == "supersonic"

    def test_outflow_rejected(self, capsys):
        rc = main(["classify", *SUBSONIC, *_left(1, -1, 1)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "u_minus" in captured.err

    def test_readme_example_on_gamma1(self, capsys):
        rc = main(["classify", *SUBSONIC, *_left(0.73, 0.73, 1.0928104313)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["outcome"] == "exists"
        assert out["curve"] == "gamma1"

    def test_non_finite_input_rejected(self, capsys):
        # a repeated flag takes the last value
        rc = main(["classify", *SUBSONIC, "--u-plus", "nan", *_left(1, 1, 1)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flag, value", [
        ("classify", "--tol-mach", "0.6"),
        ("classify", "--tol-flux", "-1"),
        ("classify", "--tol-member", "-1"),
        ("trace", "--tol-mach", "0.6"),
        ("portrait", "--trajectories", "-1"),
    ])
    def test_invalid_setting_rejected(self, tmp_path, capsys, cmd, flag, value):
        rc = main([cmd, *SUBSONIC, *_left(0.73, 0.73, 1.0928104313), flag, value,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_fields(self, capsys):
        rc = main(["classify", *SUBSONIC])
        assert rc == 1
        assert "requires" in capsys.readouterr().err


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# canonical subsonic data\n"
            "gamma = 1.4\nR = 1.0\nmu = 1.0\nkappa = 1.0\n"
            "v_plus = 1.0\nu_plus = 1.0\ntheta_plus = 1.0\n"
            "v_minus = 1.0\nu_minus = 1.0\ntheta_minus = 1.0\n")
        rc = main(["classify", "--config", str(cfg)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["classify", "--config", str(cfg), "--theta-minus", "1.2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["reason"] == "off_curve"

    def test_bad_line_diagnostic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1.4\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            load_config_file(cfg)

    def test_bad_value_diagnostic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = not-a-number\n")
        with pytest.raises(ConfigError, match="gamma"):
            load_config_file(cfg)

    def test_missing_file(self, capsys):
        rc = main(["classify", "--config", "/nonexistent/x.cfg"])
        assert rc == 1

    def test_unknown_format_rejected(self, tmp_path, capsys):
        # as --format xml is: no command may fall back to csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1: format"):
            load_config_file(cfg)
        rc = main(["trace", *SUBSONIC, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "gamma1.csv").exists()


class TestTrace:
    def test_subsonic_writes_both_curves(self, tmp_path, capsys):
        rc = main(["trace", *SUBSONIC, "--out", str(tmp_path)])
        assert rc == 0
        for label in ("gamma1", "gamma2"):
            with open(tmp_path / f"{label}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["index", "u", "theta"]
            assert len(rows) > 100
            meta = json.loads((tmp_path / f"{label}.json").read_text())
            assert meta["label"] == label
        meta2 = json.loads((tmp_path / "gamma2.json").read_text())
        assert meta2["terminal"]["kind"] == "converged_to_s2"

    def test_subcase_b_terminal(self, tmp_path):
        rc = main(["trace", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1", "--u-plus", "0.3",
                   "--theta-plus", "1", "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "gamma2.json").read_text())
        assert meta["terminal"]["kind"] == "hit_theta_axis"

    def test_transonic_single_curve(self, tmp_path):
        rc = main(["trace", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1",
                   "--u-plus", repr(math.sqrt(1.4)), "--theta-plus", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sigma.csv").exists()
        assert not (tmp_path / "gamma1.csv").exists()
        meta = json.loads((tmp_path / "sigma.json").read_text())
        assert meta["terminal"]["kind"] == "hit_u_axis"

    def test_supersonic_exit_code(self, tmp_path, capsys):
        rc = main(["trace", *SUPERSONIC, "--out", str(tmp_path)])
        assert rc == 2

    def test_json_format(self, tmp_path):
        rc = main(["trace", *SUBSONIC, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "gamma1.samples.json").read_text())
        assert payload["label"] == "gamma1"
        assert len(payload["samples"]) > 100


class TestProfileCommand:
    def test_profile_on_curve(self, tmp_path, capsys, subsonic_curves):
        c = subsonic_curves["gamma1"]
        i = len(c.samples) // 2
        u_b, th_b = float(c.samples[i, 0]), float(c.samples[i, 1])
        rc = main(["profile", *SUBSONIC, *_left(u_b, u_b, th_b),
                   "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["profile"]["monotone_ok"] is True
        assert out["profile"]["residual_sup"] <= 1e-8
        assert out["profile"]["decay"]["kind"] == "exponential"
        with open(tmp_path / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["xi", "V", "U", "Theta"]
        assert float(rows[1][0]) == 0.0

    def test_profile_not_exists(self, tmp_path, capsys):
        rc = main(["profile", *SUBSONIC, *_left(1, 0.9, 1.4),
                   "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["outcome"] == "not_exists"
        assert not (tmp_path / "profile.csv").exists()


class TestPortraitCommand:
    def test_portrait_written(self, tmp_path, capsys):
        rc = main(["portrait", *SUBSONIC, "--out", str(tmp_path)])
        assert rc == 0
        root = ET.parse(tmp_path / "portrait.svg").getroot()
        assert root.tag.endswith("svg")

    def test_supersonic_rejected(self, tmp_path):
        rc = main(["portrait", *SUPERSONIC, "--out", str(tmp_path)])
        assert rc == 2


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        rc = main(["sweep", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1", "--theta-plus", "1",
                   "--mach-min", "0.9", "--mach-max", "1.1",
                   "--mach-points", "9", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        regimes = [r["regime"] for r in rows]
        assert regimes[0] == "subsonic" and regimes[-1] == "supersonic"
        for r in rows:
            det = float(r["det_A"])
            mach = float(r["mach_plus"])
            assert np.sign(det) == np.sign(mach ** 2 - 1.0)

    def test_one_graph_per_subsonic_row(self, graph_builds):
        rows = run_sweep(GasParams(1.4, 1.0, 1.0, 1.0), 1.0, 1.0, [0.5, 0.8, 1.2])
        assert [r["regime"] for r in rows] == ["subsonic", "subsonic", "supersonic"]
        assert len(graph_builds) == 2

    def test_terminal_kind_flips_at_alpha2_boundary(self):
        gas = GasParams(1.4, 1.0, 1.0, 1.0)
        m_star = math.sqrt(0.4 / 2.8)
        machs = [m_star - 0.02, m_star - 0.005, m_star + 0.005, m_star + 0.02]
        rows = run_sweep(gas, 1.0, 1.0, machs)
        kinds = [r["gamma2_terminal"] for r in rows]
        assert kinds == ["hit_theta_axis", "hit_theta_axis",
                         "converged_to_s2", "converged_to_s2"]

    def test_tol_mach_sets_the_regime(self, tmp_path, capsys):
        # M+ = 0.97 lies inside the transonic band of half-width 0.05, so no
        # row is subsonic and no gamma2 is traced
        rc = main(["sweep", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1", "--theta-plus", "1",
                   "--tol-mach", "0.05", "--mach-min", "0.97", "--mach-max", "1.03",
                   "--mach-points", "3", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for r in rows:
            assert r["regime"] == classify_regime(float(r["mach_plus"]), 0.05).tag
            assert r["gamma2_terminal"] == ""
        assert {r["regime"] for r in rows} == {"transonic"}

    def test_invalid_range(self, capsys):
        rc = main(["sweep", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1", "--theta-plus", "1",
                   "--mach-min", "1.2", "--mach-max", "0.4",
                   "--mach-points", "5"])
        assert rc == 1


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# the stdlib's XML helpers pull in urllib.request, http.client, email and ssl
_STDLIB_HEAVY = "sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules)"


def test_runtime_loads_no_scipy(tmp_path):
    # the CLI's cold start pays for every module it imports; scipy is a test
    # dependency only, and no command may pull it in, even when installed
    src = str(Path(inflow_layer.__file__).resolve().parents[1])
    argv = [*SUBSONIC, *_left(0.73, 0.73, 1.0928104313), "--out", str(tmp_path)]
    code = (
        "import sys, contextlib, io\n"
        "import inflow_layer.cli as cli\n"
        f"print({_SCIPY_MODULES}, {_STDLIB_HEAVY})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main([cmd, *{argv!r}]) for cmd in ('profile', 'trace', 'portrait')]\n"
        "print(codes)\n"
        f"print({_SCIPY_MODULES}, {_STDLIB_HEAVY})\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] []", "[0, 0, 0]", "[] []"]
    for name in ("profile.csv", "gamma1.csv", "portrait.svg"):
        assert (tmp_path / name).is_file()
