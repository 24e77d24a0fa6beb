"""Seeded inputs, the four workloads and their correctness checks.

Every workload is a closed loop: one caller in one thread issues an
operation, waits for its reply, checks it, and only then issues the next.
``setup()`` is everything before the timed phase; ``run_round()`` is one
pass over the workload's seeded input set.  Inputs come only from the seed,
and each generated query carries its expected verdict and curve label.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from inflow_layer import (EndState, ExistenceEngine, GasParams, Query,
                          Tolerances, build_system, classify_regime)
from inflow_layer.engine import (REASON_MASS_FLUX, REASON_OFF_CURVE,
                                 REASON_OUT_OF_RANGE, REASON_SUPERSONIC)
from inflow_layer.tracer import (CURVE_GAMMA1, CURVE_GAMMA2, CURVE_SIGMA,
                                 TERMINAL_CONVERGED_TO_S2,
                                 TERMINAL_HIT_THETA_AXIS, TERMINAL_HIT_U_AXIS)

GAS = GasParams(gamma=1.4, R=1.0, mu=1.0, kappa=1.0)
SOUND = math.sqrt(GAS.gamma * GAS.R)          # sound speed at theta+ = 1
CANONICAL = EndState(1.0, 1.0, 1.0)           # M+ ~ 0.845, gamma2 -> S2
THETA_AXIS = EndState(1.0, 0.3, 1.0)          # M+ ~ 0.2535, alpha2 < 0
SONIC = EndState(1.0, SOUND, 1.0)             # M+ = 1, sigma
TOL_MEMBER = Tolerances().tol_member

# acceptance-suite bounds on a computed profile
RESIDUAL_MAX = 1e-8
ENDPOINT_GAP_MAX = 1e-8
DECAY_RATE_REL = 0.05
SONIC_EXPONENT_ABS = 0.1


def boundary_on(curve, i: int, right: EndState) -> EndState:
    """Flux-compatible boundary state at sample ``i`` of a traced curve."""
    u, theta = (float(x) for x in curve.samples[i])
    return EndState(u * right.v / right.u, u, theta)


class Tally:
    """Per-kind operation timings and the failures of one phase."""

    def __init__(self, before_op=None):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.before_op = before_op

    def op(self, kind: str, fn, check):
        """Time ``fn()``; a raise or a non-empty ``check`` result is a failure."""
        if self.before_op is not None:
            self.before_op()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any raise is a failed operation, not a crash
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.times[kind].append(perf_counter() - t0)
        try:
            problem = check(out)
        except Exception as exc:  # e.g. output that does not parse
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{kind}: {problem}")
            return None
        return out


# -- checks ------------------------------------------------------------------

def curve_terminal_problem(label: str, curve, alpha2: float) -> str | None:
    """Terminal law: gamma1/sigma hit u = 0; gamma2 follows the sign of alpha2."""
    if label == CURVE_GAMMA2:
        want = TERMINAL_CONVERGED_TO_S2 if alpha2 > 0.0 else TERMINAL_HIT_THETA_AXIS
    else:
        want = TERMINAL_HIT_U_AXIS
    if curve.terminal != want:
        return f"{label} ended {curve.terminal}, expected {want}"
    return None


def profile_problem(prof, decay_rate: float | None) -> str | None:
    """Acceptance bounds on a profile; ``decay_rate`` is |lambda2| or None (sonic)."""
    m = prof.metrics
    if not m["residual_sup"] <= RESIDUAL_MAX:
        return f"residual_sup {m['residual_sup']:.3e}"
    if not m["endpoint_gap"] <= ENDPOINT_GAP_MAX:
        return f"endpoint_gap {m['endpoint_gap']:.3e}"
    if not m["monotone_ok"]:
        return f"monotonicity signs {m['signs']}"
    rep = m["decay"]
    if rep is None:
        return None
    if decay_rate is not None:
        if abs(rep.rate - decay_rate) > DECAY_RATE_REL * decay_rate:
            return f"decay rate {rep.rate} vs |lambda2| {decay_rate}"
    elif abs(rep.exponent + 1.0) > SONIC_EXPONENT_ABS:
        return f"decay exponent {rep.exponent}"
    return None


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    # operation kinds pooled into op_p50_ms
    primary: tuple[str, ...] = ()
    # times scaled by host speed (see run.HostSpeed); not where import dominates
    host_scaled = True

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tally: Tally) -> None:
        raise NotImplementedError


class ColdCli(Workload):
    """Fresh CLI processes, one at a time, on the canonical subsonic far field."""

    name = "cold-cli"
    commands = ("classify", "trace", "profile", "portrait")
    primary = tuple(f"cli_{cmd}" for cmd in commands)
    host_scaled = False

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.out_dir = out_dir
        # replaced by the traced run to route each call through the span shim
        self.launcher = [sys.executable, "-m", "inflow_layer.cli"]

    def setup(self) -> None:
        curves = ExistenceEngine().curves_for(GAS, CANONICAL)
        g1 = curves[CURVE_GAMMA1]
        n = len(g1.samples)
        # the middle of gamma1, where the profile cost varies least with i
        left = boundary_on(g1, self.rng.randint(int(0.4 * n), int(0.6 * n)), CANONICAL)
        self.decay_rate = abs(g1.eig.lambda2)
        self.args = [
            "--gamma", repr(GAS.gamma), "--R", repr(GAS.R),
            "--mu", repr(GAS.mu), "--kappa", repr(GAS.kappa),
            "--v-plus", repr(CANONICAL.v), "--u-plus", repr(CANONICAL.u),
            "--theta-plus", repr(CANONICAL.theta),
            "--v-minus", repr(left.v), "--u-minus", repr(left.u),
            "--theta-minus", repr(left.theta),
        ]
        self.env = {"PYTHONPATH": str(self.root / "src")}

    def _call(self, cmd: str):
        out = self.out_dir / cmd
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        env = dict(os.environ, **self.env)
        proc = subprocess.run(self.launcher + [cmd] + self.args + ["--out", str(out)],
                              env=env, cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        return proc, out

    def _check(self, cmd: str, result) -> str | None:
        proc, out = result
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        if cmd in ("classify", "profile"):
            payload = json.loads(proc.stdout)
            if payload["outcome"] != "exists" or payload["curve"] != CURVE_GAMMA1:
                return f"outcome {payload['outcome']} on {payload['curve']}"
            if cmd == "profile":
                p = payload["profile"]
                decay = p["decay"]
                if not (p["residual_sup"] <= RESIDUAL_MAX
                        and p["endpoint_gap"] <= ENDPOINT_GAP_MAX and p["monotone_ok"]):
                    return f"profile bounds {p}"
                if decay is not None and (abs(decay["rate"] - self.decay_rate)
                                          > DECAY_RATE_REL * self.decay_rate):
                    return f"decay rate {decay['rate']}"
        elif cmd == "trace":
            want = {f"{CURVE_GAMMA1}: ": TERMINAL_HIT_U_AXIS,
                    f"{CURVE_GAMMA2}: ": TERMINAL_CONVERGED_TO_S2}
            for prefix, terminal in want.items():
                line = next((ln for ln in proc.stdout.splitlines()
                             if ln.startswith(prefix)), "")
                if not line.endswith(f"terminal {terminal}"):
                    return f"trace line {line!r}"
        elif cmd == "portrait":
            svg = out / "portrait.svg"
            if not svg.is_file() or 'id="curve-gamma1"' not in svg.read_text():
                return "portrait.svg missing or without gamma1"
        return None

    def run_round(self, tally: Tally) -> None:
        for cmd in self.commands:
            tally.op(f"cli_{cmd}", lambda: self._call(cmd), lambda r: self._check(cmd, r))


LADDER = (
    ("subsonic", 1.0),
    ("theta_axis", 0.3),
    ("sonic", SOUND),
    ("nearsonic_1e-2", (1.0 - 1e-2) * SOUND),
    ("nearsonic_1e-3", (1.0 - 1e-3) * SOUND),
)


class TraceLadder(Workload):
    """``curves_for`` on a fresh engine for each rung of the Mach ladder.

    The seed draws v+.  The traced field does not depend on v+, so every seed
    asks for the same tracing work; the rungs keep their order, because a
    rung's time depends a little on the rung before it.
    """

    name = "trace-ladder"
    primary = tuple(f"trace_{rung}" for rung, _ in LADDER)

    def __init__(self, seed: int, rungs=LADDER):
        self.rng = random.Random(seed)
        self.rungs = rungs

    def setup(self) -> None:
        v_plus = self.rng.uniform(0.5, 2.0)
        self.cases = []
        for rung, u_plus in self.rungs:
            right = EndState(v_plus, u_plus, 1.0)
            self.cases.append((rung, right, build_system(GAS, right)))

    @staticmethod
    def _check(curves, s) -> str | None:
        transonic = classify_regime(s.mach_plus).is_transonic
        want = [CURVE_SIGMA] if transonic else [CURVE_GAMMA1, CURVE_GAMMA2]
        if sorted(curves) != sorted(want):
            return f"curves {sorted(curves)}, expected {want}"
        for label in want:
            problem = curve_terminal_problem(label, curves[label], s.alpha2)
            if problem:
                return problem
        return None

    def run_round(self, tally: Tally) -> None:
        for rung, right, s in self.cases:
            tally.op(f"trace_{rung}",
                     lambda: ExistenceEngine().curves_for(GAS, right),
                     lambda c: self._check(c, s))


@dataclass(frozen=True)
class Case:
    """One generated query with the verdict it must get."""

    kind: str
    query: Query
    exists: bool
    reason: str | None
    curve: str | None          # the curve (exists) or the nearest curve (off_curve)


class QueryMix(Workload):
    """Warm-engine ``decide`` over a seeded mix, with profiles where layers exist."""

    name = "query-mix"
    primary = ("decide",)

    def __init__(self, seed: int, on_per_curve: int = 4):
        self.rng = random.Random(seed)
        self.on_per_curve = on_per_curve

    def setup(self) -> None:
        self.engine = ExistenceEngine()
        self.fields = (CANONICAL, THETA_AXIS, SONIC)
        self.curves = {}
        for right in self.fields:
            for label, curve in self.engine.curves_for(GAS, right).items():
                self.curves[(right, label)] = curve
                # warm-up: the first membership query builds the interpolator
                self.engine.decide(Query(boundary_on(curve, len(curve.samples) // 2,
                                                     right), right, GAS))
        self.cases = self._generate()

    def _generate(self) -> list[Case]:
        rng = self.rng
        cases = []
        for (right, label), curve in self.curves.items():
            n = len(curve.samples)
            # stratified indices keep the per-seed profile cost steady
            k = self.on_per_curve
            for j in range(k):
                lo = 2 + j * (n - 4) // k
                hi = 2 + (j + 1) * (n - 4) // k - 1
                q = Query(boundary_on(curve, rng.randint(lo, hi), right), right, GAS)
                cases.append(Case("on_curve", q, True, None, label))
            for factor, kind in ((0.5, "near_inside"), (3.0, "near_outside"),
                                 (0.05 / TOL_MEMBER, "off_curve")):
                base = boundary_on(curve, rng.randint(int(0.2 * n), int(0.8 * n)), right)
                q = Query(self._bumped(base, right, label, factor * TOL_MEMBER),
                          right, GAS)
                inside = factor < 1.0
                cases.append(Case(kind, q, inside, None if inside else REASON_OFF_CURVE,
                                  label))
        for right in self.fields:
            curve = self.curves[(right, CURVE_SIGMA if right is SONIC else CURVE_GAMMA1)]
            base = boundary_on(curve, rng.randint(2, len(curve.samples) - 2), right)
            skewed = EndState(base.v * (1.0 + 1e-3), base.u, base.theta)
            cases.append(Case("mass_flux", Query(skewed, right, GAS), False,
                              REASON_MASS_FLUX, None))
            # beyond S1 in both coordinates: outside every traced span
            f = 1.05 + 0.1 * rng.random()
            u_b, th_b = f * right.u, f * right.theta
            left = EndState(u_b * right.v / right.u, u_b, th_b)
            cases.append(Case("outside_span", Query(left, right, GAS), False,
                              REASON_OUT_OF_RANGE, None))
        for _ in range(2):
            right = EndState(1.0, rng.uniform(1.1, 2.0) * SOUND, 1.0)
            u_b = rng.uniform(0.3, 0.9) * right.u
            left = EndState(u_b * right.v / right.u, u_b, rng.uniform(1.05, 1.5))
            cases.append(Case("supersonic", Query(left, right, GAS), False,
                              REASON_SUPERSONIC, None))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _bumped(base: EndState, right: EndState, label: str, rel: float) -> EndState:
        """Move the curve's value coordinate off the curve by ``rel`` of its scale."""
        if label == CURVE_GAMMA2:      # parameter theta, value u
            u_b = base.u + rel * right.u
            return EndState(u_b * right.v / right.u, u_b, base.theta)
        return EndState(base.v, base.u, base.theta + rel * right.theta)

    @staticmethod
    def _verdict_problem(case: Case, v) -> str | None:
        got_curve = v.curve if v.exists else v.nearest_curve
        if v.exists != case.exists or v.reason != case.reason or got_curve != case.curve:
            return (f"{case.kind}: got exists={v.exists} reason={v.reason} "
                    f"curve={got_curve}, expected exists={case.exists} "
                    f"reason={case.reason} curve={case.curve}")
        return None

    def run_round(self, tally: Tally) -> None:
        for case in self.cases:
            verdict = tally.op("decide", lambda: self.engine.decide(case.query),
                               lambda v: self._verdict_problem(case, v))
            if verdict is None or not verdict.exists:
                continue
            curve = self.curves[(case.query.right, verdict.curve)]
            rate = abs(curve.eig.lambda2) if curve.eig is not None else None
            tally.op("profile",
                     lambda: self.engine.compute_profile(case.query, verdict),
                     lambda p: profile_problem(p, rate))


def sweep_problem(rows, machs) -> str | None:
    """Acceptance criterion 8, row by row, on one ``run_sweep`` call."""
    m_star = math.sqrt((GAS.gamma - 1.0) / (2.0 * GAS.gamma))
    if [r["mach_plus"] for r in rows] != list(machs):
        return "rows are not in grid order"
    for row in rows:
        m = row["mach_plus"]
        regime = classify_regime(m).tag
        if row["regime"] != regime:
            return f"M+={m}: regime {row['regime']}, expected {regime}"
        if np.sign(row["det_A"]) != np.sign(m * m - 1.0):
            return f"M+={m}: det_A sign"
        if (row["alpha2"] <= 0.0) != (m <= m_star):
            return f"M+={m}: alpha2 sign"
        if regime == "supersonic" and not (row["lambda2"] > 0.0
                                           and row["gamma2_terminal"] == ""):
            return f"M+={m}: supersonic row"
        if regime == "subsonic":
            want = (TERMINAL_HIT_THETA_AXIS if row["alpha2"] <= 0.0
                    else TERMINAL_CONVERGED_TO_S2)
            if not row["lambda1"] > 0.0 > row["lambda2"]:
                return f"M+={m}: eigenvalue signs"
            if row["gamma2_terminal"] != want:
                return f"M+={m}: gamma2 {row['gamma2_terminal']}, expected {want}"
    return None


def grid_problem(rows) -> str | None:
    """Acceptance criterion 8 on the whole grid: gamma2's terminal flips once."""
    rows = sorted(rows, key=lambda r: r["mach_plus"])
    kinds = [r["gamma2_terminal"] for r in rows if r["regime"] == "subsonic"]
    if sum(1 for a, b in zip(kinds, kinds[1:]) if a != b) != 1:
        return "gamma2 terminal does not flip exactly once"
    return None


class Sweep(Workload):
    """``cli.run_sweep`` over the acceptance grid of Mach numbers.

    A round covers the whole grid in CALLS interleaved calls (every CALLS-th
    grid point), so every call sees the whole Mach range and the host-speed
    samples fall between calls.  The seed orders the calls and draws v+,
    which the sweep's traces do not depend on.
    """

    name = "sweep"
    primary = ("sweep",)
    CALLS = 4

    def __init__(self, seed: int, points: int = 200):
        self.rng = random.Random(seed)
        self.points = points

    def setup(self) -> None:
        from inflow_layer import cli
        self.cli = cli
        self.v_plus = self.rng.uniform(0.5, 2.0)
        grid = np.linspace(0.25, 1.25, self.points).tolist()
        self.parts = [grid[k::self.CALLS] for k in range(self.CALLS)]
        self.rng.shuffle(self.parts)

    def run_round(self, tally: Tally) -> None:
        rows = []
        for machs in self.parts:
            # looked up on the module each call, so a traced run sees its wrapper
            out = tally.op("sweep",
                           lambda: self.cli.run_sweep(GAS, self.v_plus, 1.0, machs),
                           lambda r: sweep_problem(r, machs))
            rows.extend(out or [])
        problem = grid_problem(rows) if len(rows) == self.points else None
        if problem:
            tally.failures.append(f"sweep grid: {problem}")


NAMES = ("cold-cli", "trace-ladder", "query-mix", "sweep")


def make(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    if name == "cold-cli":
        return ColdCli(seed, root, out_dir / "cli")
    if name == "trace-ladder":
        return TraceLadder(seed)
    if name == "query-mix":
        return QueryMix(seed)
    if name == "sweep":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}")
