"""Phase-portrait rendering to SVG.

The emitter is deliberately tiny and dependency-free so that tests can make
coordinate-level assertions on the geometry: every marker and curve carries
``data-*`` attributes with its world coordinates, and the root element
records the world-to-viewport mapping.
"""

from __future__ import annotations

import numpy as np

from .errors import LayerError
from .integrator import (BACKWARD, FORWARD, IntegrationSettings, integrate,
                         left_region)
from .system import SystemData, nullcline_h1, nullcline_h2, phase_field
from .tracer import CURVE_SIGMA, Curve

_SVG_W = 720
_SVG_H = 560
_PAD = 50.0


class _Frame:
    """Affine world-to-viewport map with a flipped vertical axis."""

    def __init__(self, u_lo, u_hi, th_lo, th_hi):
        self.u_lo, self.u_hi = u_lo, u_hi
        self.th_lo, self.th_hi = th_lo, th_hi

    def x(self, u):
        return _PAD + (u - self.u_lo) / (self.u_hi - self.u_lo) * (_SVG_W - 2 * _PAD)

    def y(self, th):
        return _SVG_H - _PAD - (th - self.th_lo) / (self.th_hi - self.th_lo) * (_SVG_H - 2 * _PAD)


def _polyline(frame, us, ths, attrs: str) -> str:
    pieces = []
    pen_up = True
    for u, th in zip(us, ths):
        inside = (frame.u_lo <= u <= frame.u_hi) and (frame.th_lo <= th <= frame.th_hi)
        if not inside:
            pen_up = True
            continue
        cmd = "M" if pen_up else "L"
        pieces.append(f"{cmd}{frame.x(u):.2f},{frame.y(th):.2f}")
        pen_up = False
    if not pieces:
        return ""
    return f'<path {attrs} fill="none" d="{" ".join(pieces)}"/>'


def _marker(frame, name, u, th, color) -> str:
    return (f'<circle id="eq-{name}" class="equilibrium" '
            f'cx="{frame.x(u):.2f}" cy="{frame.y(th):.2f}" r="4" fill="{color}" '
            f'data-u="{u!r}" data-theta="{th!r}"/>'
            f'<text x="{frame.x(u) + 6:.2f}" y="{frame.y(th) - 6:.2f}" '
            f'font-size="12">{name}</text>')


def _default_bounds(s: SystemData, curves: dict[str, Curve]):
    u_hi = max(s.u_plus, s.alpha1 * s.u_plus)
    th_vals = [s.theta_plus, float(nullcline_h2(0.0, s)), s.alpha2 * s.theta_plus]
    th_lo, th_hi = min(0.0, min(th_vals)), max(th_vals)
    for c in curves.values():
        u_hi = max(u_hi, float(np.max(c.samples[:, 0])))
        th_hi = max(th_hi, float(np.max(c.samples[:, 1])))
        th_lo = min(th_lo, float(np.min(c.samples[:, 1])))
    span_u = u_hi
    span_th = th_hi - th_lo
    return (-0.06 * span_u, 1.08 * u_hi,
            th_lo - 0.06 * span_th, th_hi + 0.08 * span_th)


def render_portrait(s: SystemData, curves: dict[str, Curve],
                    path=None, n_trajectories: int = 3) -> str:
    """Render nullclines, region boundaries, equilibria, traced curves, and a
    grid of generic trajectories to an SVG string (optionally written to
    ``path``).

    The regime is the run's, read off ``curves``: a far field traced as
    sonic (sigma among the curves) gets neither the S2 marker nor the
    Region II arcs, since S2 has merged into S1.
    """
    sonic = CURVE_SIGMA in curves
    frame = _Frame(*_default_bounds(s, curves))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" data-u-lo="{frame.u_lo!r}" '
        f'data-u-hi="{frame.u_hi!r}" data-theta-lo="{frame.th_lo!r}" '
        f'data-theta-hi="{frame.th_hi!r}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    # axes through the origin when visible, else along the frame edge
    x0 = frame.x(max(frame.u_lo, 0.0))
    y0 = frame.y(max(frame.th_lo, 0.0))
    parts.append(f'<line id="axis-u" x1="{_PAD}" y1="{y0:.2f}" x2="{_SVG_W - _PAD}" '
                 f'y2="{y0:.2f}" stroke="#888" stroke-width="1"/>')
    parts.append(f'<line id="axis-theta" x1="{x0:.2f}" y1="{_PAD}" x2="{x0:.2f}" '
                 f'y2="{_SVG_H - _PAD}" stroke="#888" stroke-width="1"/>')
    parts.append(f'<text id="label-u" x="{_SVG_W - _PAD + 8}" y="{y0 + 4:.2f}" '
                 f'font-size="14">u</text>')
    parts.append(f'<text id="label-theta" x="{x0 - 4:.2f}" y="{_PAD - 8}" '
                 f'font-size="14">&#952;</text>')

    u_grid = np.linspace(frame.u_lo, frame.u_hi, 400)
    parts.append(_polyline(frame, u_grid, nullcline_h1(u_grid, s),
                           'id="nullcline-h1" class="nullcline" stroke="#2a7" '
                           'stroke-width="1" stroke-dasharray="5,3"'))
    parts.append(_polyline(frame, u_grid, nullcline_h2(u_grid, s),
                           'id="nullcline-h2" class="nullcline" stroke="#27c" '
                           'stroke-width="1" stroke-dasharray="5,3"'))

    # region boundaries: nullcline arcs on either side of S1 plus the u = 0 line
    seg1 = np.linspace(0.0, s.u_plus, 160)
    parts.append(_polyline(frame, seg1, nullcline_h1(seg1, s),
                           'id="boundary-l1" class="region-boundary" stroke="#060" stroke-width="2"'))
    parts.append(_polyline(frame, seg1, nullcline_h2(seg1, s),
                           'id="boundary-l2" class="region-boundary" stroke="#036" stroke-width="2"'))
    th_axis = np.linspace(frame.th_lo, frame.th_hi, 2)
    parts.append(_polyline(frame, np.zeros_like(th_axis), th_axis,
                           'id="boundary-l3" class="region-boundary" stroke="#555" stroke-width="2"'))
    if not sonic and s.mach_plus < 1.0 and s.alpha1 > 1.0:
        seg2 = np.linspace(s.u_plus, s.alpha1 * s.u_plus, 160)
        parts.append(_polyline(frame, seg2, nullcline_h2(seg2, s),
                               'id="boundary-l4" class="region-boundary" stroke="#036" stroke-width="2"'))
        parts.append(_polyline(frame, seg2, nullcline_h1(seg2, s),
                               'id="boundary-l5" class="region-boundary" stroke="#060" stroke-width="2"'))

    # generic trajectories, integrated both ways from a fixed grid and
    # stopped once they leave the (slightly expanded) viewport
    field = phase_field(s)
    du_v = frame.u_hi - frame.u_lo
    dth_v = frame.th_hi - frame.th_lo

    def in_view(y):
        return (frame.u_lo - 0.1 * du_v <= y[0] <= frame.u_hi + 0.1 * du_v
                and frame.th_lo - 0.1 * dth_v <= y[1] <= frame.th_hi + 0.1 * dth_v)

    useeds = np.linspace(frame.u_lo + 0.2 * du_v, frame.u_hi - 0.1 * du_v,
                         n_trajectories)
    thseeds = np.linspace(frame.th_lo + 0.15 * dth_v, frame.th_hi - 0.15 * dth_v,
                          n_trajectories)
    for us in useeds:
        for ths in thseeds:
            for direction in (FORWARD, BACKWARD):
                settings = IntegrationSettings(rel_tol=1e-6, abs_tol=1e-9,
                                               direction=direction, max_steps=200,
                                               h_max=1.0)
                try:
                    res = integrate(field, np.array([us, ths]), settings,
                                    events=[left_region(in_view)],
                                    max_state_step=0.05 * s.scale)
                except LayerError:
                    continue
                parts.append(_polyline(frame, res.points[:, 0], res.points[:, 1],
                                       'class="trajectory" stroke="#ccc" stroke-width="0.7"'))

    for label, c in curves.items():
        u0, th0 = (float(v) for v in c.samples[0])
        u1, th1 = (float(v) for v in c.samples[-1])
        parts.append(_polyline(
            frame, c.samples[:, 0], c.samples[:, 1],
            f'id="curve-{label}" class="curve" stroke="#c22" stroke-width="2" '
            f'data-terminal="{c.terminal}" '
            f'data-u-start="{u0!r}" data-theta-start="{th0!r}" '
            f'data-u-end="{u1!r}" data-theta-end="{th1!r}"'))

    _, s1, s2 = s.equilibria()
    parts.append(_marker(frame, "O", 0.0, 0.0, "#000"))
    parts.append(_marker(frame, "S1", s1.u, s1.theta, "#c22"))
    if not sonic:
        parts.append(_marker(frame, "S2", s2.u, s2.theta, "#22c"))
    parts.append("</svg>")
    svg = "\n".join(p for p in parts if p)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(svg)
    return svg
