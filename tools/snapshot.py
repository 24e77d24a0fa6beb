"""Write the package's bitwise output set to one JSON file, or compare two.

A refactor that must not move an output bit is checked by running this
script on both commits and comparing the two files:

    python3 tools/snapshot.py before.json          # on the old checkout
    python3 tools/snapshot.py after.json           # on the new checkout
    python3 tools/snapshot.py --compare before.json after.json

The script imports the package from the ``src`` directory next to it, so a
copy placed in another checkout snapshots that checkout.  The output set:

* the trace-ladder rungs of ``bench/workloads.py`` (samples, terminal,
  terminal point, seed offset and graph radius of every curve, and the h,
  flow, defect_coef and P_inv of the invariant-manifold graph it leaves S1
  along);
* the query-mix cases of seeds 0 and 1: the verdict of each, and the xi, V,
  U, Theta and metrics of each profile (``metrics.residual_sup`` pins the
  residual rows); and all of them again, on the same warm engine in
  reverse case order (``query_mix_reversed``), which must give the same
  bits whatever the curves' profile orbits already hold;
* verdicts and profiles at the edges of the inner grid's first-panel rule
  on the query mix's five curves (``grid_edge``): on three nodes of the
  grid that every profile on a curve ends with, one ulp either side of
  each, 1/8 decade above each and one ulp either side of that, and just
  inside the graph radius;
* the curve values ``predict`` reads on the same five curves midway
  between neighbouring samples, inside the graph radius (off the graph)
  and beyond it (off the trace run's dense output) apart (``predict``);
* verdicts and profiles at the edge of the subsonic decay's window on the
  canonical gamma1 and gamma2 (``decay_edge``): inside the graph radius,
  joining the inner grid one node before, at and one node after its first
  node in the decay window;
* sonic verdicts and profiles at u-/u+ = 0.5, 0.9995 and 0.99999, and
  sigma's predictions between S1 and its first offset sample;
* near-sonic verdicts and profiles at 1-M+ = 1e-2 and 1e-3, with the
  boundary at the middle sample of gamma1 and of gamma2;
* sigma of a stiff sonic far field (lambda2 / (a2 scale) = 625), its graph
  included, and the
  verdict and profile at its middle sample (a checkout whose sigma is
  integrated from 1e-3 scale of S1 needs about 20 s for them);
* the far field with alpha2 = 0 exactly (``alpha2_zero``: gas (2, 1, 1, 1),
  M+ = 0.5, where S2 lies on the theta axis): both curves, the verdict and
  profile at gamma2's middle sample, and the ``run_sweep`` rows at M+ =
  0.49, 0.5 and 0.51;
* the trivial profiles of boundaries on canonical gamma1 and sonic sigma at
  u- = (1 - 5e-11) u+ (``trivial_near_s1``), whose endpoint gap is the
  boundary's distance from S1;
* the 200 ``run_sweep`` rows of the acceptance grid, and the gamma2 curve
  at each of its subsonic points with its graph, traced by
  ``trace_gamma2_to_basin`` with ``cli.SWEEP_TRACE`` as the sweep traces
  it, up to S2's certified basin (the rows keep only its terminal kind).  With its 150 subsonic rows this grid takes the sweep's
  split path on any host with two or more usable CPUs, while the 7-point
  CLI sweep below, with 5 subsonic rows, stays in-process, so a
  ``--compare`` pins both sides of the split rule;
* ``integrate`` itself on the canonical field, whose every emitted point
  the thinned curves above mostly drop: backward runs along gamma1 and
  gamma2 with ``max_state_step`` set, one whose steps ask for more
  sub-samples than a step gets, and runs ending in each event kind
  (u and theta crossings, the S2 capture, ``component_crosses`` falling
  and rising, the step budget), runs where two events stop on one step or
  both at the start, each with its xi, points, event, step count and
  every step's dense value at fractions 0, 0.5 and 1;
* the canonical, sonic and alpha2 < 0 portrait SVGs;
* ``classify``, ``trace`` (csv and json), ``profile`` and ``portrait`` on
  canonical and sonic data, and a 7-point ``sweep``: exit code, stdout,
  stderr and every written file.

Floats are stored as ``float.hex`` with their type, arrays as dtype, shape
and the sha256 of their bytes, text as its sha256.  A case whose call
raises a ``LayerError`` is stored as ``error:<type name>``, so the script
runs on a checkout that cannot answer it.  ``--compare`` prints the keys
that differ, then, for each name of a float field that moved, in how many
keys it moved and its largest relative change, and exits 1 when any key
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SONIC_RATIOS = (0.5, 0.9995, 0.99999)
GAP_OFFSETS = (1e-7, 3e-7, 5e-7, 7e-7, 9e-7)   # (u+ - u) / u+, inside sigma's gap
NEAR_SONIC = (1e-2, 1e-3)                       # 1 - M+ of the pinned near-sonic profiles
STIFF_GAS = (1.4241, 5.5366, 6.3002, 0.10869)  # gamma, R, mu, kappa
STIFF_THETA = 0.3812                            # theta+ of the stiff sonic far field
ALPHA2_ZERO_GAS = (2.0, 1.0, 1.0, 1.0)          # M* = sqrt((gamma - 1) / (2 gamma)) = 0.5
ALPHA2_ZERO_MACHS = (0.49, 0.5, 0.51)           # sweep rows around alpha2 = 0
TRIVIAL_OFFSET = 5e-11                          # (u+ - u-) / u+ of the trivial profiles
DENSE_FRACTIONS = (0.0, 0.5, 1.0)               # where each step's interpolant is pinned
DECAY_EDGE_NODES = (-1, 0, 1)                   # first grid node, from the first in the window


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode(value):
    """JSON-ready form that changes whenever a bit of ``value`` changes."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}:{float(value).hex()}"
    if isinstance(value, (int, np.integer)):
        return f"{type(value).__name__}:{int(value)}"
    if isinstance(value, str):
        return value if len(value) <= 80 else f"sha256:{_sha(value.encode())}"
    if value is None:
        return None
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "sha256": _sha(np.ascontiguousarray(value).tobytes())}
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("snapshot_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _curve(curve) -> dict:
    graph = curve.graph
    return {"samples": curve.samples, "terminal": curve.terminal,
            "terminal_point": curve.terminal_point,
            "seed_offset": curve.seed_offset, "graph_radius": curve.graph_radius,
            "graph": {"h": graph.h, "flow": graph.flow,
                      "defect_coef": graph.defect_coef, "P_inv": graph.P_inv}}


def _integration(res) -> dict:
    steps = res.steps
    bounds = list(zip(steps.t[:-1], steps.t[1:]))
    dense = np.array([[steps.values(i, [t0 + frac * (t1 - t0)])[0]
                       for frac in DENSE_FRACTIONS]
                      for i, (t0, t1) in enumerate(bounds)]).reshape(-1, len(DENSE_FRACTIONS), 2)
    return {"xi": res.xi, "points": res.points, "event": res.event,
            "n_steps": res.n_steps, "bounds": np.array(bounds), "dense": dense}


def _integrations(wl) -> dict:
    """``integrate`` on the canonical field, one run per emission mode and
    event kind."""
    from inflow_layer import (IntegrationSettings, build_system, component_crosses,
                              eigen_2x2, integrate, near_equilibrium, phase_field,
                              theta_crosses_zero, u_crosses_zero)
    from inflow_layer.integrator import BACKWARD

    s = build_system(wl.GAS, wl.CANONICAL)
    e2 = eigen_2x2(s.matrix).e2
    s1 = np.array([s.u_plus, s.theta_plus])
    below, above = s1 - 1e-3 * s.scale * e2, s1 + 1e-3 * s.scale * e2
    back = IntegrationSettings(direction=BACKWARD, max_steps=200_000)
    fwd = IntegrationSettings(max_steps=200_000)
    to_s2 = [theta_crosses_zero(), near_equilibrium(s.s2, 1e-8 * s.scale)]
    runs = {
        # below: about 45 sub-samples per step, hundreds on the longest
        "gamma1_sub_sampled": (below, back, [u_crosses_zero()], 2e-4),
        "gamma2_sub_sampled": (above, back, to_s2, 1e-3),
        # all but the first of its 12 steps ask for more than the 1000
        # sub-samples a step gets
        "gamma1_over_limit": (below, IntegrationSettings(direction=BACKWARD, max_steps=12),
                              [u_crosses_zero()], 1e-8),
        "gamma1_u_axis": (below, back, [u_crosses_zero()], None),
        "gamma2_s2_capture": (above, back, to_s2, None),
        "theta_axis_forward": ((0.3, 0.5), fwd, [theta_crosses_zero()], 1e-3),
        "u_falls_through": (below, back, [component_crosses(0, 0.5 * s.u_plus)], None),
        "u_rises_through": (above, back, [component_crosses(0, 1.1 * s.u_plus)], None),
        "budget": ((0.8, 0.05), IntegrationSettings(max_steps=40), [], 1e-3),
        # two levels a hair apart, the one crossed later listed first, both
        # crossed on one step: the earlier crossing stops the run
        "two_in_one_step": (below, back, [component_crosses(0, 0.5 * s.u_plus * (1 - 1e-9)),
                                          component_crosses(0, 0.5 * s.u_plus)], None),
        # both triggered at the start: the first listed stops the run
        "immediate_first_of_two": (below, back, [near_equilibrium(s1, s.scale),
                                                 component_crosses(0, float(below[0]))], None),
    }
    return {f"integrate/{name}": _integration(
                integrate(phase_field(s), np.array(start, dtype=float), settings,
                          events=events, max_state_step=step))
            for name, (start, settings, events, step) in runs.items()}


def _inner_grid(curve) -> np.ndarray:
    """The nodes of the curve's inner grid: 16 a decade of |w| from the
    orbit's start down to 1e-10 scale of S1, at least 60."""
    from inflow_layer.tracer import _S1_OFFSET

    w0 = curve.orbit.w_start
    w_stop = _S1_OFFSET * curve.system.scale / math.hypot(*curve.graph.e_slow)
    n = max(60, int(round(math.log10(abs(w0) / w_stop) * 16)) + 1)
    return math.copysign(1.0, w0) * np.geomspace(abs(w0), w_stop, n)


def grid_edges(curve) -> list[float]:
    """Graph coordinates w inside the curve's graph radius around its inner
    grid: on nodes 3, n/3 and 2n/3, one ulp either side of each, 10**(1/8)
    times each and one ulp either side of that, and the orbit's start
    times 1 - 1e-12."""
    grid = _inner_grid(curve)
    n = len(grid)
    ws = [curve.orbit.w_start * (1.0 - 1e-12)]
    for g in (float(grid[j]) for j in (3, n // 3, 2 * n // 3)):
        for w in (g, g * 10.0 ** 0.125):
            ws += [w, math.nextafter(w, 0.0), math.nextafter(w, 2.0 * w)]
    return ws


def decay_edges(curve) -> list[float]:
    """Graph coordinates w inside a gamma curve's graph radius whose
    profiles join its inner grid at the nodes ``DECAY_EDGE_NODES`` from the
    grid's first node in the subsonic decay window, 1e-9 to 1e-2 scale of
    |u - u+|: 2.5 nodes above each, since a profile inside the radius
    joins the grid at its first node at least 2 nodes below it."""
    s = curve.system
    grid = _inner_grid(curve)
    y = np.abs(curve.graph.points(grid[1:])[:, 0] - s.u_plus)
    first = 1 + int(np.argmax((y >= 1e-9 * s.scale) & (y <= 1e-2 * s.scale)))
    return [float(grid[first + k]) * 10.0 ** (2.5 / 16) for k in DECAY_EDGE_NODES]


def _predictions(curve, key: str) -> dict:
    """``predict`` midway between each pair of neighbouring samples, those
    inside the graph radius and those beyond it apart."""
    p = curve.params
    mids = (0.5 * (p[1:] + p[:-1])).tolist()
    beyond = [curve.beyond_graph(q) for q in mids]
    return {f"{key}/{side}": np.array([curve.predict(q) for q, b in zip(mids, beyond)
                                       if b == (side == "beyond")])
            for side in ("inside", "beyond")}


def _profile(prof) -> dict:
    return {"xi": prof.xi, "V": prof.V, "U": prof.U, "Theta": prof.Theta,
            "metrics": prof.metrics}


def _decided(engine, query, verdict_to_dict) -> dict:
    verdict = engine.decide(query)
    out = {"verdict": verdict_to_dict(verdict)}
    if verdict.exists:
        out["profile"] = _profile(engine.compute_profile(query, verdict))
    return out


def snapshot() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from inflow_layer import (EndState, ExistenceEngine, GasParams, LayerError, Query,
                              build_system, eigen_2x2, saddle_graph)
    from inflow_layer import cli
    from inflow_layer.engine import verdict_to_dict
    from inflow_layer.portrait import render_portrait

    wl = _load_workloads()
    out = {}

    ladder = wl.TraceLadder(0)
    ladder.setup()
    for rung, right, _s in ladder.cases:
        for label, curve in ExistenceEngine().curves_for(wl.GAS, right).items():
            out[f"ladder/{rung}/{label}"] = _curve(curve)

    for seed in (0, 1):
        mix = wl.QueryMix(seed)
        mix.setup()
        for i, case in enumerate(mix.cases):
            out[f"query_mix/{seed}/{i:03d}"] = _decided(mix.engine, case.query,
                                                        verdict_to_dict)
        for i in reversed(range(len(mix.cases))):
            out[f"query_mix_reversed/{seed}/{i:03d}"] = _decided(
                mix.engine, mix.cases[i].query, verdict_to_dict)

    engine = ExistenceEngine()
    for name, right in (("canonical", wl.CANONICAL), ("theta_axis", wl.THETA_AXIS),
                        ("sonic", wl.SONIC)):
        for label, curve in engine.curves_for(wl.GAS, right).items():
            for i, w in enumerate(grid_edges(curve)):
                u, theta = (float(x) for x in curve.graph.points(w))
                left = EndState(u * right.v / right.u, u, theta)
                out[f"grid_edge/{name}/{label}/{i:02d}"] = _decided(
                    engine, Query(left, right, wl.GAS), verdict_to_dict)
            out.update(_predictions(curve, f"predict/{name}/{label}"))

    right = wl.CANONICAL
    for label, curve in engine.curves_for(wl.GAS, right).items():
        for k, w in zip(DECAY_EDGE_NODES, decay_edges(curve)):
            u, theta = (float(x) for x in curve.graph.points(w))
            left = EndState(u * right.v / right.u, u, theta)
            out[f"decay_edge/{label}/{k:+d}"] = _decided(
                engine, Query(left, right, wl.GAS), verdict_to_dict)

    right = wl.SONIC
    sigma = engine.curves_for(wl.GAS, right)["sigma"]
    for ratio in SONIC_RATIOS:
        u_b = ratio * right.u
        left = EndState(u_b * right.v / right.u, u_b, sigma.predict(u_b))
        out[f"sonic/{ratio}"] = _decided(engine, Query(left, right, wl.GAS),
                                         verdict_to_dict)
    for offset in GAP_OFFSETS:
        out[f"sigma_gap/{offset}"] = sigma.predict(right.u * (1.0 - offset))

    for gap in NEAR_SONIC:
        right = EndState(1.0, (1.0 - gap) * wl.SOUND, 1.0)
        for label, curve in engine.curves_for(wl.GAS, right).items():
            left = wl.boundary_on(curve, len(curve.samples) // 2, right)
            out[f"near_sonic/{gap}/{label}"] = _decided(engine, Query(left, right, wl.GAS),
                                                        verdict_to_dict)

    gas = GasParams(*STIFF_GAS)
    right = EndState(1.0, math.sqrt(gas.gamma * gas.R * STIFF_THETA), STIFF_THETA)
    stiff = engine.curves_for(gas, right)["sigma"]
    out["stiff_sonic/sigma"] = _curve(stiff)
    left = wl.boundary_on(stiff, len(stiff.samples) // 2, right)
    out["stiff_sonic/mid"] = _decided(engine, Query(left, right, gas), verdict_to_dict)

    gas = GasParams(*ALPHA2_ZERO_GAS)
    right = EndState(1.0, math.sqrt(0.5), 1.0)    # M+ = 0.5: alpha2 = 0.0 exactly
    keys = ("gamma1", "gamma2", "mid")
    try:
        curves = engine.curves_for(gas, right)
        gamma2 = curves["gamma2"]
        left = wl.boundary_on(gamma2, len(gamma2.samples) // 2, right)
        cases = (_curve(curves["gamma1"]), _curve(gamma2),
                 _decided(engine, Query(left, right, gas), verdict_to_dict))
    except LayerError as exc:
        cases = (f"error:{type(exc).__name__}",) * len(keys)
    out.update((f"alpha2_zero/{key}", case) for key, case in zip(keys, cases))
    for mach, row in zip(ALPHA2_ZERO_MACHS, cli.run_sweep(gas, 1.0, 1.0,
                                                          list(ALPHA2_ZERO_MACHS))):
        out[f"alpha2_zero/sweep/{mach}"] = row

    for right, label in ((wl.CANONICAL, "gamma1"), (wl.SONIC, "sigma")):
        curve = engine.curves_for(wl.GAS, right)[label]
        u_b = (1.0 - TRIVIAL_OFFSET) * right.u
        left = EndState(u_b * right.v / right.u, u_b, curve.predict(u_b))
        out[f"trivial_near_s1/{label}"] = _decided(engine, Query(left, right, wl.GAS),
                                                   verdict_to_dict)

    grid = np.linspace(0.25, 1.25, 200).tolist()
    sound = math.sqrt(wl.GAS.R * wl.GAS.gamma)
    for i, row in enumerate(cli.run_sweep(wl.GAS, 1.0, 1.0, grid)):
        out[f"sweep/{i:03d}"] = row
        if row["regime"] != "subsonic":
            continue
        # the far field as run_sweep builds it from the Mach number
        s = build_system(wl.GAS, EndState(1.0, row["mach_plus"] * sound, 1.0))
        try:
            curve = cli.trace_gamma2_to_basin(s, saddle_graph(s, eigen_2x2(s.matrix)),
                                              cli.SWEEP_TRACE)
            out[f"sweep_curve/{i:03d}"] = _curve(curve)
        except LayerError as exc:
            out[f"sweep_curve/{i:03d}"] = f"error:{type(exc).__name__}"

    for name, right in (("canonical", wl.CANONICAL), ("sonic", wl.SONIC),
                        ("theta_axis", wl.THETA_AXIS)):
        curves = ExistenceEngine().curves_for(wl.GAS, right)
        out[f"portrait/{name}"] = render_portrait(build_system(wl.GAS, right), curves)

    out.update(_integrations(wl))
    out.update(_cli_outputs(wl, cli, sigma))
    return {key: encode(value) for key, value in out.items()}


def _cli_outputs(wl, cli, sigma) -> dict:
    gas = ["--gamma", repr(wl.GAS.gamma), "--R", repr(wl.GAS.R),
           "--mu", repr(wl.GAS.mu), "--kappa", repr(wl.GAS.kappa)]

    def data(right, u_b, theta_b):
        return gas + ["--v-plus", repr(right.v), "--u-plus", repr(right.u),
                      "--theta-plus", repr(right.theta),
                      "--v-minus", repr(u_b * right.v / right.u),
                      "--u-minus", repr(u_b), "--theta-minus", repr(theta_b)]

    u_s = 0.5 * wl.SONIC.u
    cases = {
        "canonical": data(wl.CANONICAL, 0.73, 1.0928104313),
        "sonic": data(wl.SONIC, u_s, float(sigma.predict(u_s))),
    }
    runs = {}
    for name, args in cases.items():
        for cmd in ("classify", "trace", "profile", "portrait"):
            runs[f"{cmd}/{name}"] = [cmd] + args
        runs[f"trace_json/{name}"] = ["trace"] + args + ["--format", "json"]
    runs["sweep"] = ["sweep"] + gas + ["--v-plus", "1.0", "--theta-plus", "1.0",
                                       "--mach-min", "0.4", "--mach-max", "1.2",
                                       "--mach-points", "7"]
    out = {}
    for key, argv in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--out", tmp])
            files = {p.name: _sha(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
            out[f"cli/{key}"] = {"exit": code,
                                 "stdout": stdout.getvalue().replace(tmp, "<out>"),
                                 "stderr": stderr.getvalue().replace(tmp, "<out>"),
                                 "files": files}
    return out


def compare(a: dict, b: dict) -> list[str]:
    """Keys whose encoded values differ, or that only one snapshot has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k, ...) != b.get(k, ...))


def _decode_float(value) -> float | None:
    """The float an ``encode``d value holds, or None for any other value."""
    if isinstance(value, str) and value.startswith("float"):
        with contextlib.suppress(ValueError):
            return float.fromhex(value.partition(":")[2])
    return None


def _float_moves(a, b, name: str, found: dict) -> None:
    """Into ``found``, the largest relative change of each field name whose
    floats differ between the encoded values a and b."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() & b.keys():
            _float_moves(a[k], b[k], k, found)
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            _float_moves(x, y, name, found)
    elif a != b:
        x, y = _decode_float(a), _decode_float(b)
        if x is not None and y is not None:
            rel = abs(y - x) / abs(x) if x else math.inf
            found[name] = max(found.get(name, 0.0), rel)


def float_moves(a: dict, b: dict) -> dict[str, tuple[int, float]]:
    """For each name of a float field that differs between two snapshots,
    the number of keys in which it moved and its largest relative change;
    a key whose value is itself a float counts under its own name."""
    moves = {}
    for key in a.keys() & b.keys():
        found = {}
        _float_moves(a[key], b[key], key, found)
        for name, rel in found.items():
            n, worst = moves.get(name, (0, 0.0))
            moves[name] = (n + 1, max(worst, rel))
    return moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the snapshot to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys that differ between two snapshots")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        diff = compare(a, b)
        for key in diff:
            print(key)
        for name, (n, rel) in sorted(float_moves(a, b).items()):
            print(f"float {name}: {n} keys, largest relative change {rel:.2e}")
        print(f"{len(diff)} differing keys")
        return 1 if diff else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    data = snapshot()
    Path(args.out).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} keys to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
