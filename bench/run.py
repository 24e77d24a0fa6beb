"""Benchmark of the inflow-layer classifier and tracer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Runs one seeded, closed-loop workload (see bench/NOTES.md) from the root of a
source checkout, against the package in ``src/``.  Set-up is timed three
times (this process plus two fresh ones) and reported as a median; then the
workload repeats rounds over its input set for about S seconds, checking
every output.  Times of the timed phase are scaled to a reference host
speed (see ``HostSpeed``).  With --trace 0 the last line of stdout is the
JSON result with the end-to-end metrics; with --trace 1 the run spends half its time
untraced and half traced, and reports the per-layer metrics, the tracing
overhead and the workload's own named timings from the untraced half.
Every metric, with its unit and sample count, goes to stderr, and the full
record (environment included) to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("cold-cli", "trace-ladder", "query-mix", "sweep")
SETUP_PROBES = 2
IMPORT_REPEATS = 3
PERCENTILE_TAIL = 10        # samples that must lie beyond a reported percentile
REFERENCE_S = 0.005         # nominal duration of one reference loop
SAMPLE_EVERY_S = 0.1        # one host-speed sample per this much timed phase
MAX_BURST = 10              # most samples taken at one operation boundary
TIME_UNITS = ("s", "ms", "us")
UNSCALED = ("setup_s", "import.wall_s", "import.scipy_s")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the package under test."""
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


class HostSpeed:
    """How fast the host runs, sampled evenly through the timed phase.

    The CPU speed of a shared VM can drift by a fifth within tens of
    seconds, which no amount of work inside a 20-second run averages away.
    So at each operation boundary the run times ``reference_loop`` once per
    SAMPLE_EVERY_S elapsed since the last sample, and reports each time of
    the timed phase scaled by REFERENCE_S / (median reference time): seconds
    on a host where the loop takes REFERENCE_S.  The time spent sampling is
    kept out of the rounds; the raw times stay in the result file.  An
    inactive instance samples nothing and scales by 1.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def tick(self) -> None:
        if not self.active:
            return
        t0 = perf_counter()
        due = min(MAX_BURST, int((t0 - self._last) / SAMPLE_EVERY_S))
        if due == 0:
            return
        for _ in range(due):
            t = perf_counter()
            reference_loop()
            self.samples.append(perf_counter() - t)
        self._last = perf_counter()
        self.spent += self._last - t0

    @property
    def factor(self) -> float:
        return REFERENCE_S / median(self.samples) if self.samples else 1.0


def git_sha() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def package_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- set-up ------------------------------------------------------------------

def timed_setup(args):
    """Import the package, build the workload and run its set-up; time it all."""
    t0 = perf_counter()
    import workloads
    wl = workloads.make(args.workload, args.seed, ROOT, OUT)
    wl.setup()
    return wl, perf_counter() - t0


def setup_probe(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, env=package_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- measurement -------------------------------------------------------------

def run_phase(wl, seconds: float, speed: HostSpeed):
    """Repeat whole rounds while the next one is expected to end in time."""
    from workloads import Tally
    tally = Tally(before_op=speed.tick)
    t_start = perf_counter()
    while True:
        t0, spent0 = perf_counter(), speed.spent
        wl.run_round(tally)
        tally.rounds.append(perf_counter() - t0 - (speed.spent - spent0))
        if perf_counter() - t_start + median(tally.rounds) > seconds:
            return tally


def end_to_end(wl, tally, setups) -> dict:
    ops = [t for kind in wl.primary for t in tally.times.get(kind, [])]
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "round_s": (median(tally.rounds), "s", len(tally.rounds)),
        "op_p50_ms": (1e3 * median(ops), "ms", len(ops)),
    }


def percentile(xs, q: int):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(xs) * (100 - q) / 100 < PERCENTILE_TAIL:
        return None
    return statistics.quantiles(xs, n=100)[q - 1]


def named_metrics(tally, *others) -> dict:
    """Each workload's own timings under fixed names; 0 where not exercised.

    Timings come from ``tally``; the failed share counts ``others`` too.
    """
    import workloads
    t = tally.times
    out = {}
    for kind in workloads.ColdCli.primary + workloads.TraceLadder.primary:
        out[f"{kind}_s"] = (median(t.get(kind, [])), "s", len(t.get(kind, [])))
    decides = t.get("decide", [])
    p90 = percentile(decides, 90)
    out["decide_p50_us"] = (1e6 * median(decides), "us", len(decides))
    out["decide_p90_us"] = (1e6 * p90 if p90 is not None else 0.0, "us",
                            len(decides) if p90 is not None else 0)
    profiles = t.get("profile", [])
    out["profile_p50_ms"] = (1e3 * median(profiles), "ms", len(profiles))
    # the whole grid, which a round of the sweep workload covers
    rounds = tally.rounds if t.get("sweep") else []
    out["sweep_s"] = (median(rounds), "s", len(rounds))
    attempted = sum(x.attempted for x in (tally,) + others)
    failed = sum(len(x.failures) for x in (tally,) + others)
    out["ops_failed_frac"] = (failed / max(attempted, 1), "ratio", attempted)
    return out


def parse_importtime(text: str) -> tuple[float, float]:
    """(inflow_layer cumulative, scipy cumulative) seconds from -X importtime."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or line.rstrip().endswith("imported package"):
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cum)))
    wall = scipy_us = 0
    parents: list[str] = []           # pre-order walk: the open chain by depth
    for depth, name, cum in reversed(entries):
        del parents[depth:]
        parent = parents[-1] if parents else ""
        if name == "inflow_layer":
            wall = cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum
        parents.append(name)
    return wall / 1e6, scipy_us / 1e6


def import_metrics() -> dict:
    walls, scipys = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import inflow_layer"],
                              cwd=ROOT, env=package_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        wall, sc = parse_importtime(proc.stderr)
        walls.append(wall)
        scipys.append(sc)
    return {"import.wall_s": (median(walls), "s", len(walls)),
            "import.scipy_s": (median(scipys), "s", len(scipys))}


def traced_phase(wl, seconds: float, speed: HostSpeed, spans_path: Path):
    """Run with every wrap target installed; return the tally and the spans."""
    from spans import Recorder
    recorder = Recorder()
    recorder.install()
    saved_launcher = getattr(wl, "launcher", None)
    shim_spans = OUT / f"shim-{os.getpid()}.jsonl"
    if saved_launcher is not None:
        shim_spans.unlink(missing_ok=True)
        wl.launcher = [sys.executable, str(BENCH / "cli_shim.py"), str(shim_spans)]
    try:
        tally = run_phase(wl, seconds, speed)
    finally:
        recorder.uninstall()
        if saved_launcher is not None:
            wl.launcher = saved_launcher
    spans = recorder.spans
    if saved_launcher is not None and shim_spans.is_file():
        spans = spans + Recorder.load(shim_spans)
        shim_spans.unlink()
    spans_path.unlink(missing_ok=True)
    recorder.spans = spans
    recorder.dump(spans_path)
    return tally, spans


# -- reporting ---------------------------------------------------------------

def scaled(metrics: dict, factor: float) -> dict:
    """Times of the timed phase in reference seconds.

    ``setup_s`` and the import times stay raw: they are dominated by module
    loading, which the reference loop does not track (nor does ``cold-cli``,
    whose inactive HostSpeed has factor 1).
    """
    out = {}
    for name, (value, unit, n) in metrics.items():
        if unit in TIME_UNITS and name not in UNSCALED:
            value *= factor
        out[name] = (value, unit, n)
    return out


def report(metrics: dict, stream) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={n}", file=stream)


def run_one(args) -> int:
    if not (SRC / "inflow_layer" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args)[1]}))
        return 0
    wl, setup_s = timed_setup(args)
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    speed = HostSpeed(active=wl.host_scaled)
    OUT.mkdir(exist_ok=True)

    record = {"environment": environment(args)}
    if args.trace:
        # fail before measuring anything if a wrap target is gone
        from spans import Recorder, layer_metrics
        probe = Recorder()
        probe.install()
        probe.uninstall()
        plain = run_phase(wl, args.seconds / 2, speed)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced, spans = traced_phase(wl, args.seconds / 2, speed, spans_path)
        metrics = layer_metrics(spans, len(traced.rounds))
        metrics.update(import_metrics())
        metrics.update(named_metrics(plain, traced))
        overhead = median(traced.rounds) / median(plain.rounds) - 1.0
        metrics["tracing.overhead_frac"] = (overhead, "ratio", len(traced.rounds))
        record["untraced"] = end_to_end(wl, plain, setups)
        record["traced"] = end_to_end(wl, traced, setups)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        tallies = (plain, traced)
    else:
        plain = run_phase(wl, args.seconds, speed)
        metrics = end_to_end(wl, plain, setups)
        record["named"] = named_metrics(plain)
        tallies = (plain,)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    record["raw_metrics"] = metrics
    record["host_speed"] = {"reference_s": REFERENCE_S, "samples": len(speed.samples),
                            "median_s": median(speed.samples), "factor": speed.factor}
    metrics = scaled(metrics, speed.factor)
    if "named" in record:
        record["raw_named"] = record["named"]
        record["named"] = scaled(record["named"], speed.factor)
    record.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {len(failures)} failed", file=sys.stderr)
    for line in failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    report(metrics, sys.stderr)
    if "named" in record:
        report({k: v for k, v in record["named"].items() if v[2]}, sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
