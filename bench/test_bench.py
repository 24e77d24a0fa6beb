"""Tests of the benchmark itself: tiny workloads with their checks on, the
result line against BENCHMARK.json, and loud failure on a missing layer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _round(wl):
    wl.setup()
    tally = workloads.Tally()
    wl.run_round(tally)
    return tally


def test_trace_ladder_tiny():
    tally = _round(workloads.TraceLadder(3, rungs=workloads.LADDER[:3]))
    assert tally.failures == []
    assert tally.attempted == 3


def test_query_mix_tiny():
    wl = workloads.QueryMix(3, on_per_curve=1)
    tally = _round(wl)
    assert tally.failures == []
    kinds = {case.kind for case in wl.cases}
    assert kinds == {"on_curve", "near_inside", "near_outside", "off_curve",
                     "mass_flux", "outside_span", "supersonic"}
    assert len(tally.times["profile"]) == sum(case.exists for case in wl.cases)


def test_sweep_tiny():
    tally = _round(workloads.Sweep(3, points=20))
    assert tally.failures == [] and tally.attempted == workloads.Sweep.CALLS


def test_cold_cli_round(tmp_path):
    tally = _round(workloads.ColdCli(3, ROOT, tmp_path))
    assert tally.failures == []
    assert sorted(tally.times) == sorted(workloads.ColdCli.primary)


def test_checks_catch_a_wrong_verdict():
    wl = workloads.QueryMix(5, on_per_curve=1)
    wl.setup()
    case = next(c for c in wl.cases if c.kind == "near_outside")
    wrong = workloads.Case(case.kind, case.query, True, None, case.curve)
    assert wl._verdict_problem(wrong, wl.engine.decide(case.query)) is not None


def test_inputs_depend_only_on_the_seed():
    def cases(seed):
        wl = workloads.QueryMix(seed, on_per_curve=2)
        wl.setup()
        return [(c.kind, c.query, c.exists, c.reason, c.curve) for c in wl.cases]

    assert cases(7) == cases(7)
    assert cases(7) != cases(8)


def test_missing_wrap_target_fails_loudly(monkeypatch):
    from inflow_layer import engine
    original = engine.ExistenceEngine.decide
    bogus = spans.TARGETS + (("inflow_layer.engine", "no_such_layer", "engine.x", None),)
    monkeypatch.setattr(spans, "TARGETS", bogus)
    with pytest.raises(spans.WrapTargetMissing, match="no_such_layer"):
        spans.Recorder().install()
    assert engine.ExistenceEngine.decide is original


def test_recorder_spans_and_self_time():
    from inflow_layer import ExistenceEngine, Query
    original = ExistenceEngine.decide
    rec = spans.Recorder()
    rec.install()
    try:
        eng = ExistenceEngine()
        curves = eng.curves_for(workloads.GAS, workloads.CANONICAL)
        g1 = curves["gamma1"]
        q = Query(workloads.boundary_on(g1, len(g1.samples) // 2, workloads.CANONICAL),
                  workloads.CANONICAL, workloads.GAS)
        eng.compute_profile(q, eng.decide(q))
    finally:
        rec.uninstall()
    assert ExistenceEngine.decide is original
    m = spans.layer_metrics(rec.spans, rounds=1)
    assert m["engine.cache_misses"][0] == 1 and m["engine.cache_hits"][0] == 2
    assert m["integrator.calls"][0] == 3        # two traces and one profile leg
    assert m["integrator.field_evals"][0] >= 6 * m["integrator.steps"][0]
    assert m["tracer.self_s"][0] > 0.0
    assert 0.0 < m["tracer.keep_ratio"][0] <= 1.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |         scipy._lib",
        "import time:        20 |        700 |       scipy.integrate",
        "import time:         5 |          5 |       inflow_layer.gas",
        "import time:         7 |         50 |     inflow_layer.integrator",
        "import time:         3 |        900 |   inflow_layer",
    ])
    assert run.parse_importtime(text) == (900e-6, 700e-6)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0.0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_validates(trace, key):
    proc = _result(["--workload", "query-mix", "--seed", "4", "--seconds", "1",
                    "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0.0 for v in res["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
