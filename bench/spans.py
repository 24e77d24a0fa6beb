"""Spans for the traced run, recorded from the benchmark's own files.

The traced run replaces each public name of the package at the place where
another module looks it up (``engine.integrate``, ``cli.trace_gamma``, the
methods of ``ExistenceEngine``, ...) with a wrapper that records a span:
name, start, end, parent and thread.  The callables returned by
``phase_field`` are wrapped too, so that every field evaluation is counted
against the span that is open on its thread.  Spans are kept in memory and
written out when the run ends; per-layer metrics are computed from them.

A wrap target that no longer exists raises ``WrapTargetMissing``: a layer
that a refactor renamed or removed must show up as an error, never as a
silent zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from statistics import median
from time import perf_counter


class WrapTargetMissing(RuntimeError):
    """A module or attribute that the traced run wraps does not exist."""


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    thread: int
    evals: int = 0                      # field evaluations made inside the span
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _integrate_attrs(res) -> dict:
    return {"steps": int(res.n_steps), "points": int(len(res.xi))}


def _curve_attrs(curve) -> dict:
    return {"kept": int(len(curve.samples)), "terminal": curve.terminal}


def _membership_attrs(mem) -> dict:
    return {"refined": bool(mem.refined)}


# (module, attribute path, span name, result -> span attributes)
TARGETS = (
    ("inflow_layer.engine", "ExistenceEngine.curves_for", "engine.curves_for", None),
    ("inflow_layer.engine", "ExistenceEngine.decide", "engine.decide", None),
    ("inflow_layer.engine", "ExistenceEngine.compute_profile", "engine.compute_profile", None),
    ("inflow_layer.engine", "verify_residual", "engine.verify_residual", None),
    ("inflow_layer.engine", "verify_decay", "engine.verify_decay", None),
    ("inflow_layer.engine", "build_system", "system.build_system", None),
    ("inflow_layer.cli", "build_system", "system.build_system", None),
    ("inflow_layer.engine", "eigen_2x2", "linearize.eigen_2x2", None),
    ("inflow_layer.cli", "eigen_2x2", "linearize.eigen_2x2", None),
    ("inflow_layer.engine", "transonic_frame", "linearize.transonic_frame", None),
    ("inflow_layer.engine", "trace_gamma", "tracer.trace_gamma", _curve_attrs),
    ("inflow_layer.cli", "trace_gamma", "tracer.trace_gamma", _curve_attrs),
    ("inflow_layer.engine", "trace_sigma", "tracer.trace_sigma", _curve_attrs),
    ("inflow_layer.engine", "curve_membership", "tracer.curve_membership",
     _membership_attrs),
    ("inflow_layer.tracer", "Curve.refine_value", "tracer.refine_value", None),
    ("inflow_layer.engine", "integrate", "integrator.integrate", _integrate_attrs),
    ("inflow_layer.tracer", "integrate", "integrator.integrate", _integrate_attrs),
    ("inflow_layer.portrait", "integrate", "integrator.integrate", _integrate_attrs),
    ("inflow_layer.cli", "render_portrait", "portrait.render_portrait", None),
    ("inflow_layer.cli", "run_sweep", "cli.run_sweep", None),
)

# modules whose phase_field is wrapped to count field evaluations
FIELD_FACTORIES = ("inflow_layer.engine", "inflow_layer.tracer", "inflow_layer.portrait")

TRACE_SPANS = ("tracer.trace_gamma", "tracer.trace_sigma")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[str] = []
        self.evals = 0


def _resolve(module: str, path: str):
    """Return (owner, attribute name, current value) or raise WrapTargetMissing."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise WrapTargetMissing(f"{module}: {exc}") from exc
    *parents, last = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise WrapTargetMissing(f"{module}.{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    if not hasattr(owner, last):
        raise WrapTargetMissing(f"{module}.{path}: no attribute {last!r}")
    return owner, last, getattr(owner, last)


class Recorder:
    """Collects spans from wrapped package functions, on any thread."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._prefix = id_prefix
        self._state = _ThreadState()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = state.stack[-1] if state.stack else None
            sid = f"{self._prefix}{next(self._ids)}"
            state.stack.append(sid)
            evals0 = state.evals
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                state.stack.pop()
                span = Span(sid, name, t0, t1, parent, threading.get_ident(),
                            state.evals - evals0)
                if out is not None and attrs is not None:
                    span.attrs.update(attrs(out))
                self.spans.append(span)

        return wrapper

    def _counting_factory(self, factory):
        state = self._state

        @functools.wraps(factory)
        def make(*args, **kwargs):
            fun = factory(*args, **kwargs)

            def counted(xi, y):
                state.evals += 1
                return fun(xi, y)

            return counted

        return make

    def install(self) -> None:
        """Wrap every target; on a missing target nothing stays wrapped."""
        plan = [(_resolve(module, path), name, attrs)
                for module, path, name, attrs in TARGETS]
        factories = [_resolve(module, "phase_field") for module in FIELD_FACTORIES]
        for (owner, attr, original), name, attrs in plan:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        for owner, attr, original in factories:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counting_factory(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    @staticmethod
    def load(path) -> list[Span]:
        with open(path) as fh:
            return [Span(**json.loads(line)) for line in fh if line.strip()]


def _med(xs) -> float:
    return float(median(xs)) if xs else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    Counts and busy times are per round of the workload; durations of single
    calls are medians.  A layer the workload never calls reports 0 with a
    sample count of 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(s: Span) -> float:
        return s.dur - sum(c.dur for c in children[s.id])

    def child_time(s: Span, name: str) -> float:
        return sum(c.dur for c in children[s.id] if c.name == name)

    r = max(rounds, 1)
    out: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, n):
        out[name] = (float(value), unit, int(n))

    for span_name, metric, scale, unit in (
            ("system.build_system", "system.build_system_us", 1e6, "us"),
            ("linearize.eigen_2x2", "linearize.eigen_2x2_us", 1e6, "us"),
            ("linearize.transonic_frame", "linearize.transonic_frame_us", 1e6, "us")):
        xs = by_name[span_name]
        put(metric, scale * _med([s.dur for s in xs]), unit, len(xs))

    integ = by_name["integrator.integrate"]
    steps = sum(s.attrs.get("steps", 0) for s in integ)
    evals = sum(s.evals for s in integ)
    t_int = sum(s.dur for s in integ)
    n = len(integ)
    put("integrator.calls", n / r, "count", n)
    put("integrator.steps", steps / r, "count", n)
    put("integrator.field_evals", evals / r, "count", n)
    put("integrator.evals_per_step", evals / steps if steps else 0.0, "ratio", n)
    put("integrator.us_per_step", 1e6 * t_int / steps if steps else 0.0, "us", n)
    put("integrator.self_s", sum(self_time(s) for s in integ) / r, "s", n)
    put("integrator.points_out", sum(s.attrs.get("points", 0) for s in integ) / r,
        "count", n)

    gam, sig = by_name["tracer.trace_gamma"], by_name["tracer.trace_sigma"]
    traces = gam + sig
    raw = sum(c.attrs.get("points", 0) for t in traces for c in children[t.id]
              if c.name == "integrator.integrate")
    kept = sum(t.attrs.get("kept", 0) for t in traces)
    put("tracer.trace_gamma_s", sum(s.dur for s in gam) / r, "s", len(gam))
    put("tracer.trace_sigma_s", sum(s.dur for s in sig) / r, "s", len(sig))
    put("tracer.self_s", sum(self_time(s) for s in traces) / r, "s", len(traces))
    put("tracer.raw_points", raw / r, "count", len(traces))
    put("tracer.kept_samples", kept / r, "count", len(traces))
    put("tracer.keep_ratio", kept / raw if raw else 0.0, "ratio", len(traces))
    put("tracer.budget_terminals",
        sum(1 for t in traces if t.attrs.get("terminal") == "budget") / r,
        "count", len(traces))

    memb = by_name["tracer.curve_membership"]
    refined = sum(1 for s in memb if s.attrs.get("refined"))
    refines = by_name["tracer.refine_value"]
    put("tracer.membership_calls", len(memb) / r, "count", len(memb))
    put("tracer.membership_us", 1e6 * _med([s.dur for s in memb]), "us", len(memb))
    put("tracer.refined_frac", refined / len(memb) if memb else 0.0, "ratio", len(memb))
    put("tracer.refine_ms", 1e3 * _med([s.dur for s in refines]), "ms", len(refines))

    cf = by_name["engine.curves_for"]
    misses = sum(1 for s in cf if any(c.name in TRACE_SPANS for c in children[s.id]))
    decides = by_name["engine.decide"]
    profs = by_name["engine.compute_profile"]
    residual = by_name["engine.verify_residual"]
    decay = by_name["engine.verify_decay"]
    put("engine.curves_for_s", sum(s.dur for s in cf) / r, "s", len(cf))
    put("engine.cache_hits", (len(cf) - misses) / r, "count", len(cf))
    put("engine.cache_misses", misses / r, "count", len(cf))
    put("engine.decide_self_us", 1e6 * _med([self_time(s) for s in decides]), "us",
        len(decides))
    put("engine.profile_integrate_ms",
        1e3 * _med([child_time(p, "integrator.integrate") for p in profs]), "ms",
        len(profs))
    put("engine.verify_residual_ms", 1e3 * _med([s.dur for s in residual]), "ms",
        len(residual))
    put("engine.verify_decay_ms", 1e3 * _med([s.dur for s in decay]), "ms", len(decay))
    put("engine.profile_self_ms", 1e3 * _med([self_time(p) for p in profs]), "ms",
        len(profs))

    renders = by_name["portrait.render_portrait"]
    put("portrait.render_s", _med([s.dur for s in renders]), "s", len(renders))
    put("portrait.integrate_calls",
        _med([sum(1 for c in children[s.id] if c.name == "integrator.integrate")
              for s in renders]), "count", len(renders))

    # pool threads start with an empty span stack, so a sweep's rows are
    # attributed to it by time containment rather than by parent links
    sweeps = by_name["cli.run_sweep"]
    busy = [sum(t.dur for t in gam if s.start <= t.start and t.end <= s.end)
            for s in sweeps]
    put("cli.run_sweep_s", _med([s.dur for s in sweeps]), "s", len(sweeps))
    put("cli.sweep_row_busy_s", _med(busy), "s", len(sweeps))
    put("cli.sweep_busy_ratio", _med([b / s.dur for b, s in zip(busy, sweeps)]),
        "ratio", len(sweeps))
    return out
