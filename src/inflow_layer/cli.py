"""Command-line interface: classify, trace, profile, portrait, sweep.

Configuration comes from a flat ``key = value`` text file and/or flags;
flags override file values.  Exit codes: 0 when a layer exists (or the
requested artifacts were produced), 2 when no layer/curves exist for the
data, 1 on input or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .engine import (ExistenceEngine, Query, Tolerances, decay_to_dict,
                     export_profile_csv, verdict_to_dict)
from .errors import ConfigError, LayerError
from .gas import (EndState, GasParams, TOL_FLUX, TOL_MACH, TOL_MEMBER, classify_regime,
                  require_positive)
from .linearize import eigen_2x2, saddle_graph
from .portrait import render_portrait
from .system import build_system
from .tracer import (CURVE_GAMMA2, TraceOptions, export_curve_csv,
                     export_curve_json, trace_gamma)

@dataclass(frozen=True)
class RunConfig:
    gamma: float | None = None
    R: float | None = None
    mu: float | None = None
    kappa: float | None = None
    v_minus: float | None = None
    u_minus: float | None = None
    theta_minus: float | None = None
    v_plus: float | None = None
    u_plus: float | None = None
    theta_plus: float | None = None
    tol_member: float = TOL_MEMBER
    tol_mach: float = TOL_MACH
    tol_flux: float = TOL_FLUX
    mach_min: float | None = None
    mach_max: float | None = None
    mach_points: int = 0
    trajectories: int = 3
    out: str = "."
    format: str = "csv"


FORMATS = ("csv", "json")       # what ``trace`` writes the samples as
_INT_KEYS = {"mach_points", "trajectories"}
_STR_KEYS = {"out", "format"}
_ALL_KEYS = {f.name for f in fields(RunConfig)}
_FLOAT_KEYS = _ALL_KEYS - _INT_KEYS - _STR_KEYS


def load_config_file(path) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "format" and val not in FORMATS:
            raise ConfigError(f"{path}:{lineno}: format must be one of "
                              f"{', '.join(FORMATS)}, got {val!r}")
        if key in _STR_KEYS:
            values[key] = val
        else:
            caster = int if key in _INT_KEYS else float
            try:
                values[key] = caster(val)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: field {key!r} needs a number, got {val!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for key in _ALL_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return replace(cfg, **overrides)


def _require(cfg: RunConfig, names: tuple[str, ...], what: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"{what} requires {', '.join(missing)}")


def _gas(cfg: RunConfig) -> GasParams:
    _require(cfg, ("gamma", "R", "mu", "kappa"), "gas setup")
    try:
        return GasParams(cfg.gamma, cfg.R, cfg.mu, cfg.kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _state(cfg: RunConfig, side: str) -> EndState:
    names = (f"v_{side}", f"u_{side}", f"theta_{side}")
    _require(cfg, names, f"{side} end state")
    try:
        return EndState(*(getattr(cfg, n) for n in names))
    except ValueError as exc:
        raise ConfigError(f"{side} end state: {exc}") from exc


def _tolerances(cfg: RunConfig) -> Tolerances:
    try:
        return Tolerances(tol_A=cfg.tol_flux, tol_M=cfg.tol_mach,
                          tol_member=cfg.tol_member)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _curves(cfg: RunConfig, what: str):
    """System and traced curves of the far field, or None when it is supersonic."""
    gas = _gas(cfg)
    right = _state(cfg, "plus")
    tol_M = _tolerances(cfg).tol_M
    s = build_system(gas, right)
    if classify_regime(s.mach_plus, tol_M).is_supersonic:
        print(f"no {what}: the far field is supersonic", file=sys.stderr)
        return None
    return s, ExistenceEngine().curves_for(gas, right, tol_M)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_classify(cfg: RunConfig) -> int:
    engine = ExistenceEngine()
    q = Query(_state(cfg, "minus"), _state(cfg, "plus"), _gas(cfg), _tolerances(cfg))
    verdict = engine.decide(q)
    print(json.dumps(verdict_to_dict(verdict), indent=2))
    return 0 if verdict.exists else 2


def cmd_trace(cfg: RunConfig) -> int:
    traced = _curves(cfg, "existence curves")
    if traced is None:
        return 2
    _s, curves = traced
    out = _outdir(cfg)
    for label, curve in curves.items():
        if cfg.format == "json":
            payload = {"label": label, "terminal": curve.terminal,
                       "samples": curve.samples.tolist()}
            (out / f"{label}.samples.json").write_text(json.dumps(payload))
        else:
            export_curve_csv(curve, out / f"{label}.csv")
        export_curve_json(curve, out / f"{label}.json")
        print(f"{label}: {len(curve.samples)} samples, terminal {curve.terminal}")
    return 0


def cmd_profile(cfg: RunConfig) -> int:
    engine = ExistenceEngine()
    q = Query(_state(cfg, "minus"), _state(cfg, "plus"), _gas(cfg), _tolerances(cfg))
    verdict = engine.decide(q)
    payload = verdict_to_dict(verdict)
    if not verdict.exists:
        print(json.dumps(payload, indent=2))
        return 2
    prof = engine.compute_profile(q, verdict)
    out = _outdir(cfg)
    export_profile_csv(prof, out / "profile.csv")
    decay = prof.metrics.get("decay")
    payload = verdict_to_dict(verdict, decay)
    payload["profile"] = {
        "n_samples": int(len(prof.xi)),
        "monotone_ok": bool(prof.metrics["monotone_ok"]),
        "residual_sup": prof.metrics["residual_sup"],
        "endpoint_gap": prof.metrics["endpoint_gap"],
        "decay": decay_to_dict(decay),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_portrait(cfg: RunConfig) -> int:
    if cfg.trajectories < 0:
        raise ConfigError("portrait requires trajectories >= 0")
    traced = _curves(cfg, "portrait")
    if traced is None:
        return 2
    s, curves = traced
    out = _outdir(cfg)
    target = out / "portrait.svg"
    render_portrait(s, curves, path=target, n_trajectories=cfg.trajectories)
    print(f"wrote {target}")
    return 0


# run_sweep's gamma2 traces keep only their terminal kind
SWEEP_TRACE = TraceOptions(rel_tol=1e-8, abs_tol=1e-10, max_steps=100_000,
                           sample_cap=5e-2, thin_spacing=1e-4)


def run_sweep(gas: GasParams, v_plus: float, theta_plus: float, machs,
              tol_M: float = TOL_MACH) -> list[dict]:
    """Evaluate regime/eigen/equilibrium data over a Mach grid.

    The far-field velocity is set from each Mach number; rows come back in
    grid order, each labelled with its regime for the transonic band
    half-width ``tol_M``.  Subsonic rows carry the actual traced terminal
    kind of the gamma2 branch, or ``"error:<Type>"`` when its trace raised
    a ``LayerError``.

    Each row is a pure function of its Mach number, so the rows may be
    computed anywhere: with k = min(usable CPUs, subsonic rows // 6) of
    at least 2, and when the process can fork and runs no other thread,
    the grid is split into k interleaved shares ``machs[j::k]``, each
    spanning the whole Mach range.  This process computes share 0 and
    k - 1 forked children the others; each child sends its rows back by
    pickle, which carries every float and its type exactly, and the rows
    are put back in grid order.  Otherwise the rows are computed here, one
    after another.  Either way the rows have the same bits, and an
    exception other than a ``LayerError`` of a trace propagates with its
    type: that of the first row, in grid order, that raises.  No child
    outlives the call.
    """
    sound = math.sqrt(gas.R * gas.gamma * theta_plus)

    def one(mach_plus: float) -> dict:
        right = EndState(v_plus, mach_plus * sound, theta_plus)
        s = build_system(gas, right)
        regime = classify_regime(s.mach_plus, tol_M)
        eig = eigen_2x2(s.matrix)
        row = {
            "mach_plus": mach_plus,
            "regime": regime.tag,
            "det_A": s.det_A,
            "tr_A": s.tr_A,
            "lambda1": eig.lambda1,
            "lambda2": eig.lambda2,
            "alpha1": s.alpha1,
            "alpha2": s.alpha2,
            "gamma2_terminal": "",
        }
        if regime.is_subsonic:
            try:
                curve = trace_gamma(s, saddle_graph(s, eig), CURVE_GAMMA2,
                                    SWEEP_TRACE)
                row["gamma2_terminal"] = curve.terminal
            except LayerError as exc:
                row["gamma2_terminal"] = f"error:{type(exc).__name__}"
        return row

    machs = list(machs)
    k = _shares(machs, tol_M)
    if k <= 1:
        return [one(m) for m in machs]
    return _split(one, machs, k)


def _shares(machs, tol_M: float) -> int:
    """How many processes share a sweep: min(usable CPUs, subsonic rows //
    6), or 1 where the process cannot fork or runs another thread.

    A subsonic row traces gamma2, about 3 ms on a 2-core VM; the other
    rows cost microseconds.  A forked child pays about 5 ms more: the
    fork and the reaping, and a first row about 2.6 ms slower than the
    next.  There, in 21 alternating runs, 8 subsonic rows split in two
    took 28.5 ms against 20.6 ms in one process, 10 rows about 28 ms
    either way, and 12 rows 26.9 ms against 37.6 ms, faster in 20 of the
    21; hence the 6.  A process with other threads is not forked: a lock
    one of them holds would stay held in the child.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    subsonic = sum(1 for m in machs if 0.0 <= m < 1.0 - tol_M)
    return min(cpus, subsonic // 6)


def _rows(one, machs) -> tuple[list[dict], Exception | None]:
    """The rows of ``machs`` in order up to the first that raises, and
    that exception (None when every row is made)."""
    rows = []
    try:
        for m in machs:
            rows.append(one(m))
    except Exception as exc:
        return rows, exc
    return rows, None


def _split(one, machs: list, k: int) -> list[dict]:
    """``[one(m) for m in machs]`` in k interleaved shares: share 0 here,
    shares 1 .. k-1 in forked children, which send their rows back by
    pickle and exit.  Raises the exception of the first row, in grid
    order, that raises.  Every child is reaped before the call returns or
    raises; when an exception cuts the call short, every child still
    running is killed first."""
    import pickle
    import signal
    shares = [machs[j::k] for j in range(k)]
    children = []                  # (pid, read end) of shares 1 .. k-1
    done = False
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:           # the child: never returns into the caller
                status = 1
                try:
                    os.close(r)
                    data = pickle.dumps(_rows(one, share))
                    with open(w, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [_rows(one, shares[0])]
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise RuntimeError(f"sweep share process {pid} exited sending no rows")
            results.append(pickle.loads(data))
        done = True
    finally:
        for pid, fh in children:
            fh.close()
            if not done:           # unreaped, so the pid is still the child's
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(j + k * len(rows), exc)
              for j, (rows, exc) in enumerate(results) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(machs)
    for j, (rows, _exc) in enumerate(results):
        out[j::k] = rows
    return out


def cmd_sweep(cfg: RunConfig) -> int:
    gas = _gas(cfg)
    _require(cfg, ("v_plus", "theta_plus", "mach_min", "mach_max"), "sweep")
    if cfg.mach_points < 2:
        raise ConfigError("sweep requires mach_points >= 2")
    try:
        require_positive(cfg, ("v_plus", "theta_plus"))
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if not 0.0 < cfg.mach_min < cfg.mach_max < math.inf:
        raise ConfigError("sweep requires 0 < mach_min < mach_max < inf")
    machs = [cfg.mach_min + i * (cfg.mach_max - cfg.mach_min) / (cfg.mach_points - 1)
             for i in range(cfg.mach_points)]
    rows = run_sweep(gas, cfg.v_plus, cfg.theta_plus, machs,
                     tol_M=_tolerances(cfg).tol_M)
    out = _outdir(cfg)
    target = out / "sweep.csv"
    fieldnames = ["mach_plus", "regime", "det_A", "tr_A", "lambda1", "lambda2",
                  "alpha1", "alpha2", "gamma2_terminal"]
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {target} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflow-layer",
        description="Boundary-layer existence classification and tracing for "
                    "the compressible inflow problem")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    for key in sorted(_FLOAT_KEYS):
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    for key in sorted(_INT_KEYS):
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    common.add_argument("--out", dest="out")
    common.add_argument("--format", dest="format", choices=FORMATS)
    sub.add_parser("classify", parents=[common],
                   help="decide existence for boundary + far-field data")
    sub.add_parser("trace", parents=[common],
                   help="trace the existence curves for a far field")
    sub.add_parser("profile", parents=[common],
                   help="classify, then compute and verify the layer profile")
    sub.add_parser("portrait", parents=[common],
                   help="render the phase portrait to SVG")
    sub.add_parser("sweep", parents=[common],
                   help="tabulate regime/eigen data over a Mach grid")
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "portrait": cmd_portrait,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except LayerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
