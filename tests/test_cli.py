import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import inflow_layer
from inflow_layer import cli
from inflow_layer.cli import main, load_config_file, run_sweep
from inflow_layer.errors import ConfigError, TraceFailed
from inflow_layer.gas import GasParams, classify_regime
from inflow_layer.tracer import trace_gamma

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

    def test_overflowing_field_is_a_typed_error(self, capsys):
        # a finite far field whose phase field overflows a float once the
        # first trace steps away from S1: an error line, not a traceback
        rc = main(["classify", "--gamma", "1.4", "--R", "1", "--mu", "1", "--kappa", "1",
                   "--v-plus", "1", "--u-plus", "1e60", "--theta-plus", "1e120",
                   *_left(0.5, 5e59, 1.3e120)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: field overflows") and "Traceback" not in err

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

    def test_one_graph_per_subsonic_row(self, graph_builds, forks):
        # two subsonic rows are too few to split, so every build is counted here
        rows = run_sweep(GasParams(1.4, 1.0, 1.0, 1.0), 1.0, 1.0, [0.5, 0.8, 1.2])
        assert [r["regime"] for r in rows] == ["subsonic", "subsonic", "supersonic"]
        assert len(graph_builds) == 2 and forks == []

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

    @pytest.mark.parametrize("bad", [
        ["--theta-plus", "-1"], ["--theta-plus", "0"], ["--theta-plus", "nan"],
        ["--theta-plus", "inf"], ["--v-plus", "-1"], ["--v-plus", "nan"],
        ["--mach-max", "inf"], ["--mach-max", "nan"], ["--mach-min", "nan"]])
    def test_bad_far_field_or_range_is_an_error_line(self, bad, tmp_path, capsys, forks):
        rc = main(["sweep", "--gamma", "1.4", "--R", "1", "--mu", "1",
                   "--kappa", "1", "--v-plus", "1", "--theta-plus", "1",
                   "--mach-min", "0.3", "--mach-max", "1.2", "--mach-points", "40",
                   "--out", str(tmp_path), *bad])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "" and forks == []
        assert len(err.splitlines()) == 1 and err.startswith("error: sweep")
        assert not (tmp_path / "sweep.csv").exists()


GAS = GasParams(1.4, 1.0, 1.0, 1.0)
SUBSONIC_GRID = np.linspace(0.3, 0.9, 12).tolist()   # alpha2 changes sign inside


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` makes while the test runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _reaped(pids) -> bool:
    """No child process of this one is left, running or as a zombie."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return multiprocessing.active_children() == []


def _bits(rows):
    return [{k: float(v).hex() if isinstance(v, float) else str(v) for k, v in r.items()}
            for r in rows]


def _failing_trace(monkeypatch, failures):
    """Make ``cli.trace_gamma`` raise ``failures[i]`` at SUBSONIC_GRID[i]."""
    def trace_or_raise(s, graph, branch, opts):
        for i, exc in failures.items():
            if s.mach_plus == pytest.approx(SUBSONIC_GRID[i], rel=1e-12):
                raise exc
        return trace_gamma(s, graph, branch, opts)

    monkeypatch.setattr(cli, "trace_gamma", trace_or_raise)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
class TestSweepSplit:
    """``run_sweep`` over k interleaved shares in forked children."""

    def test_split_rows_equal_one_point_calls(self, forks, two_cpus):
        # the acceptance grid; a one-point call has no subsonic rows to split
        machs = np.linspace(0.25, 1.25, 200).tolist()
        rows = run_sweep(GAS, 1.0, 1.0, machs)
        assert len(forks) == 1 and _reaped(forks)
        alone = [run_sweep(GAS, 1.0, 1.0, [m])[0] for m in machs]
        assert len(forks) == 1
        assert _bits(rows) == _bits(alone)
        assert [type(v) for r in rows for v in r.values()] == \
               [type(v) for r in alone for v in r.values()]

    def test_split_rule(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        # eight usable CPUs: 18 subsonic rows make 3 shares, 12 make 2, 11 make 1
        grid = np.linspace(0.3, 0.9, 18).tolist()
        assert cli._shares(grid + [1.0, 1.5], 1e-8) == 3
        assert cli._shares(SUBSONIC_GRID, 1e-8) == 2
        assert cli._shares(SUBSONIC_GRID[:11], 1e-8) == 1
        rows = run_sweep(GAS, 1.0, 1.0, grid)
        assert len(forks) == 2 and _reaped(forks)
        assert [r["mach_plus"] for r in rows] == grid

    def test_one_usable_cpu_forks_nothing(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rows = run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert forks == [] and len(rows) == len(SUBSONIC_GRID)

    def test_another_thread_forks_nothing(self, forks, two_cpus):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            rows = run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == [] and len(rows) == len(SUBSONIC_GRID)

    def test_a_childs_exception_keeps_its_type(self, forks, two_cpus, monkeypatch):
        # row 3 is in the child's share, row 4 in the caller's
        _failing_trace(monkeypatch, {3: ValueError("injected at row 3")})
        with pytest.raises(ValueError, match="injected at row 3"):
            run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert len(forks) == 1 and _reaped(forks)

    def test_the_first_failing_row_in_grid_order_raises(self, forks, two_cpus,
                                                       monkeypatch):
        _failing_trace(monkeypatch, {4: KeyError("row 4"), 3: ValueError("row 3")})
        with pytest.raises(ValueError, match="row 3"):
            run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        _failing_trace(monkeypatch, {2: KeyError("row 2"), 3: ValueError("row 3")})
        with pytest.raises(KeyError, match="row 2"):
            run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert len(forks) == 2 and _reaped(forks)

    def test_no_child_outlives_an_interrupted_sweep(self, forks, two_cpus, monkeypatch):
        class Interrupt(BaseException):
            pass

        # an interrupt in the caller's share kills the child at once
        caller = os.getpid()

        def interrupted_or_stuck(*args):
            if os.getpid() == caller:
                raise Interrupt()
            time.sleep(60)

        monkeypatch.setattr(cli, "trace_gamma", interrupted_or_stuck)
        start = time.perf_counter()
        with pytest.raises(Interrupt):
            run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert time.perf_counter() - start < 30
        # a child ended by one sends no rows
        _failing_trace(monkeypatch, {1: Interrupt()})
        with pytest.raises(RuntimeError, match="sending no rows"):
            run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert len(forks) == 2 and _reaped(forks)

    def test_a_layer_error_stays_a_row(self, forks, two_cpus, monkeypatch):
        _failing_trace(monkeypatch, {3: TraceFailed("child"), 4: TraceFailed("caller")})
        rows = run_sweep(GAS, 1.0, 1.0, SUBSONIC_GRID)
        assert len(forks) == 1 and _reaped(forks)
        kinds = [r["gamma2_terminal"] for r in rows]
        assert kinds[3] == kinds[4] == "error:TraceFailed"
        assert not any(k.startswith("error") for i, k in enumerate(kinds) if i not in (3, 4))


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
