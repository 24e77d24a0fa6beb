"""Existence decision procedure, layer profiles, and their verification.

A boundary layer exists iff the mass fluxes match, the far field is not
supersonic, and the boundary point (u-, theta-) lies on the traced curve of
its regime (sonic: sigma; subsonic: gamma1 or gamma2), the equal-states
case giving the trivial constant layer.

Profiles ride invariant manifolds into the far-field equilibrium S1, which
forward shooting cannot follow (transverse errors grow exponentially).
Every profile is a cut of its curve (``Curve.leg``), along its
invariant-manifold graph at S1 (``Curve.graph``).  A boundary beyond the
graph's radius is reached on the curve's profile orbit (``Curve.orbit``),
the stable backward run from the graph point at that radius, stopped where
the boundary parameter is crossed, then reversed and re-based to xi = 0 at
the boundary; a boundary inside it is the graph point itself.  The refined
membership of ``decide`` stops on the same run, so a refined verdict and
its profile read the same crossing.  From there down to 1e-10 * scale of S1
every profile reads the orbit's one inner grid along the graph, joined two
panels below a boundary inside the radius by one panel of its own: xi by
Gauss-Legendre quadrature of the reduced flow's flight time, the residual
rows from the graph's phase velocity.  Quadrature resolves the sonic 1/xi
tail and the subsonic exp(lambda2 xi) one alike, where an integrator would
crawl at |lambda2| ~ 1 - M+ with its steps capped by the fast rate.

A warm profile pays only for its own rows: its stop, the sum of its xi,
and the checks of its outer points and its crossing step's partial row.
What every profile on the curve shares, the grid and the steps its stop
passes whole, the orbit checks once: the largest residual and the extreme
differences of V, U and Theta of each grid suffix, the residual rows of
the run's steps with their running maximum, and on gamma the exponential
tail fit of the grid's window rows.  Max, min and sign tests are exact, so
the residual and monotonicity metrics are those of the whole profile, bit
for bit.  A subsonic profile whose window rows are exactly the grid's
reports the grid's fit, the same rate for every such profile on the curve,
up to rounding what its own fit gives; any other profile is fitted on its
own (``verify_decay``), as is every sonic one.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import (InvalidBoundary, OutOfRange, ProfileDiverged, TailTooShort)
from .gas import (EndState, GasParams, Regime, TOL_FLUX, TOL_MACH, TOL_MEMBER,
                  check_flux_condition, check_tol_mach, classify_regime, mach,
                  require_positive)
# the profile legs are cuts of the curve's orbit (``Curve.leg``);
# ``integrate`` and ``phase_field`` stay importable here, the engine's
# names for the integrator and the field, which bench/spans.py wraps
from .integrator import integrate  # noqa: F401
from .linearize import eigen_2x2, saddle_graph, transonic_frame
from .system import phase_field  # noqa: F401
from .system import (PhasePoint, SystemData, build_system, field_poly, residual_sup,
                     specific_volume)
from .tracer import (CURVE_GAMMA1, CURVE_GAMMA2, CURVE_SIGMA, TAIL_MIN, TERMINAL_BUDGET,
                     _S1_OFFSET, Curve, TraceOptions, curve_membership, exponential_tail,
                     trace_gamma, trace_sigma)

REASON_MASS_FLUX = "mass_flux_mismatch"
REASON_NONPOSITIVE_U_PLUS = "nonpositive_u_plus"
REASON_SUPERSONIC = "supersonic"
REASON_OFF_CURVE = "off_curve"
REASON_OUT_OF_RANGE = "outside_curve_range"
REASON_TRUNCATED = "curve_truncated"

CURVE_TRIVIAL = "trivial"

_TRIVIAL_RTOL = 1e-12
CURVE_CACHE_SIZE = 32   # far fields whose curves an engine keeps

@dataclass(frozen=True)
class Tolerances:
    """Decision tolerances: flux identity, transonic band, curve membership."""

    tol_A: float = TOL_FLUX
    tol_M: float = TOL_MACH
    tol_member: float = TOL_MEMBER

    def __post_init__(self):
        require_positive(self, ("tol_A", "tol_member"))
        check_tol_mach(self.tol_M)


@dataclass(frozen=True)
class Query:
    """One existence question: boundary data, far field, gas, tolerances."""

    left: EndState
    right: EndState
    gas: GasParams
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if self.left.u <= 0.0:
            raise InvalidBoundary(
                f"inflow problem requires u_minus > 0, got {self.left.u}")


@dataclass(frozen=True)
class Verdict:
    """Existence decision with reason codes and diagnostics.

    For exists=True, ``curve`` is the curve label (or "trivial") and
    ``curve_parameter`` the boundary point's parameter on it.  For
    exists=False, ``reason`` is one of the REASON_* codes; off-curve
    verdicts carry the signed distance and the nearest curve to make
    near-misses actionable.
    """

    exists: bool
    mach_plus: float
    regime: Regime | None = None
    curve: str | None = None
    curve_parameter: float | None = None
    reason: str | None = None
    distance: float | None = None
    nearest_curve: str | None = None
    flux_gap: float | None = None
    notes: tuple[str, ...] = ()


@dataclass
class Profile:
    """Sampled layer profile, xi = 0 at the boundary: the outer leg's step
    ends (the boundary's graph point alone inside the graph radius), then
    the nodes of its curve's one quadrature grid along the graph down to S1.

    V satisfies V = (v+/u+) U identically (the integrated mass equation).
    ``metrics`` holds monotonicity, the scaled sup residual, the endpoint
    gap to S1, and the decay report when a fit was possible.
    ``compute_profile`` takes the checks from ``Curve.leg``, which reads
    those of the rows its curve's profiles share off the curve's orbit: the
    residual and the signs are those of ``verify_residual`` and of the
    whole profile's differences, bit for bit, and the decay is
    ``verify_decay``'s up to rounding.  ``residual_rows`` holds the (u,
    theta, u', theta') rows the residual is checked on, from the engine's
    legs; a non-trivial profile without rows gets ``residual_sup = inf``.
    """

    xi: np.ndarray
    V: np.ndarray
    U: np.ndarray
    Theta: np.ndarray
    trivial: bool
    curve: str | None
    system: SystemData
    metrics: dict = dc_field(default_factory=dict)
    residual_rows: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 4)))


@dataclass(frozen=True)
class DecayReport:
    """Fitted tail behavior of a profile.

    kind is "exponential" (subsonic: |U - u+| ~ C exp(-rate xi)),
    "algebraic" (sonic: |U - u+| ~ C / xi, exponent near -1, and
    xi * (u+ - U) -> inv_coeff), or "not_applicable" for trivial profiles.
    """

    kind: str
    rate: float | None = None
    amplitude: float | None = None
    rate_theta: float | None = None
    exponent: float | None = None
    inv_coeff: float | None = None
    exponent_d1: float | None = None
    n_tail: int = 0


class _Flight:
    """One key's curves, or the error its trace raised, traced by the first
    caller while the others wait.  The curves' profile orbits live on the
    curves, so they leave the cache with the entry."""

    __slots__ = ("done", "curves", "error")

    def __init__(self):
        self.done = threading.Event()
        self.curves: dict[str, Curve] | None = None
        self.error: BaseException | None = None


class ExistenceEngine:
    """Caches traced curves per (gas, far field, regime) and answers queries.

    Curve tracing is the expensive step; traces are cached immutable and
    shared read-only across queries.  Each key is traced once however many
    callers ask for it at the same time (a trace that raises raises in
    each of them, and is not kept), and the cache keeps the
    ``CURVE_CACHE_SIZE`` keys used last.

    Each cached curve keeps its profile orbit (``Curve.orbit``): the
    backward run from the graph point at the graph radius, holding the
    steps up to the farthest parameter a refinement or a profile has asked
    of it and the residual rows of those steps, and the curve's inner grid
    along the graph with the checks its profiles share.  The orbits leave
    the cache with their entry's curves.  They cannot change an answer: a
    refined membership value and a profile's leg are prefixes of the
    orbit, stopped by ``Run.stopped_by`` as every ``integrate`` call is,
    the steps before a stop and their rows do not depend on where the run
    stops, and the grid does not depend on the boundary.
    """

    def __init__(self, trace_options: TraceOptions | None = None):
        self.trace_options = trace_options or TraceOptions()
        # insertion order is recency order: a hit moves its key to the end
        self._cache: dict[tuple, _Flight] = {}
        self._lock = threading.Lock()

    # -- system and curve assembly -------------------------------------

    def curves_for(self, gas: GasParams, right: EndState,
                   tol_M: float = TOL_MACH) -> dict[str, Curve]:
        """The far field's curves, traced if they are not cached."""
        # the regime decides which curves exist, and it depends on tol_M
        regime = classify_regime(mach(right, gas), tol_M)
        key = (gas.gamma, gas.R, gas.mu, gas.kappa,
               right.v, right.u, right.theta, regime.tag)
        with self._lock:
            flight = self._cache.pop(key, None)
            owner = flight is None
            if owner:
                flight = _Flight()
            self._cache[key] = flight
            if owner and len(self._cache) > CURVE_CACHE_SIZE:
                del self._cache[next(iter(self._cache))]
            elif flight.curves is not None:
                return flight.curves
        if not owner:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.curves
        try:
            flight.curves = self._trace(build_system(gas, right), regime, tol_M)
        except BaseException as exc:
            # the waiters get the error; the next new caller traces again
            flight.error = exc
            with self._lock:
                if self._cache.get(key) is flight:
                    del self._cache[key]
            raise
        finally:
            flight.done.set()
        return flight.curves

    def _trace(self, s: SystemData, regime: Regime, tol_M: float) -> dict[str, Curve]:
        if regime.is_transonic:
            return {CURVE_SIGMA: trace_sigma(s, transonic_frame(s, tol_M),
                                             self.trace_options)}
        if regime.is_subsonic:
            # gamma1 and gamma2 are the two branches of one stable manifold
            graph = saddle_graph(s, eigen_2x2(s.matrix))
            return {label: trace_gamma(s, graph, label, self.trace_options)
                    for label in (CURVE_GAMMA1, CURVE_GAMMA2)}
        return {}

    # -- decision procedure ---------------------------------------------

    def decide(self, q: Query) -> Verdict:
        """Run the full existence decision for one query."""
        left, right, gas = q.left, q.right, q.gas
        mach_plus = mach(right, gas)
        if right.u <= 0.0:
            return Verdict(exists=False, mach_plus=mach_plus,
                           reason=REASON_NONPOSITIVE_U_PLUS)
        flux = check_flux_condition(left, right, q.tolerances.tol_A)
        if not flux.ok:
            return Verdict(exists=False, mach_plus=mach_plus,
                           reason=REASON_MASS_FLUX, flux_gap=flux.gap)
        regime = classify_regime(mach_plus, q.tolerances.tol_M)
        scale = max(right.u, right.theta)
        if (abs(left.u - right.u) <= _TRIVIAL_RTOL * scale
                and abs(left.theta - right.theta) <= _TRIVIAL_RTOL * scale):
            return Verdict(exists=True, mach_plus=mach_plus, regime=regime,
                           curve=CURVE_TRIVIAL,
                           notes=("boundary data equals the far field: "
                                  "constant (zero-amplitude) layer",))
        if regime.is_supersonic:
            return Verdict(exists=False, mach_plus=mach_plus, regime=regime,
                           reason=REASON_SUPERSONIC)
        p = PhasePoint(left.u, left.theta)
        best = None
        truncated = False
        # sigma, or gamma1 then gamma2: the order ``_trace`` builds them in
        for label, curve in self.curves_for(gas, right, q.tolerances.tol_M).items():
            try:
                mem = curve_membership(curve, p, q.tolerances.tol_member)
            except OutOfRange:
                # beyond the far end of a curve the step budget cut short
                truncated |= (curve.terminal == TERMINAL_BUDGET
                              and (p.u, p.theta)[curve.param_index] < curve.param_range[0])
                continue
            if mem.on_curve:
                return Verdict(exists=True, mach_plus=mach_plus, regime=regime,
                               curve=label, curve_parameter=mem.parameter)
            if best is None or abs(mem.distance) < abs(best[1].distance):
                best = (label, mem)
        if best is not None:
            return Verdict(exists=False, mach_plus=mach_plus, regime=regime,
                           reason=REASON_OFF_CURVE, distance=best[1].distance,
                           nearest_curve=best[0])
        return Verdict(exists=False, mach_plus=mach_plus, regime=regime,
                       reason=REASON_TRUNCATED if truncated else REASON_OUT_OF_RANGE)

    # -- profile computation ---------------------------------------------

    def compute_profile(self, q: Query, verdict: Verdict | None = None) -> Profile:
        """Compute the layer profile (V, U, Theta)(xi) for an existing layer.

        The profile is a cut of the curve's profile orbit (``Curve.leg``);
        the answer is the same bits on a fresh engine and on one that has
        refined or profiled any other boundaries before.

        Raises ProfileDiverged, before any step, if the boundary parameter
        lies outside the verdict's curve's range, which only a verdict
        passed in for another boundary can do; and if the backward
        realization fails to land on the boundary data within ten
        membership tolerances, which only an unrefined verdict or one for
        another boundary can do (a refined one read the same stop), or
        spends its step budget before it reaches the boundary parameter.
        """
        verdict = verdict if verdict is not None else self.decide(q)
        if not verdict.exists:
            raise ProfileDiverged(f"no layer exists: {verdict.reason}")
        s = build_system(q.gas, q.right)
        if verdict.curve == CURVE_TRIVIAL:
            return self._trivial_profile(q, s)
        curve = self.curves_for(q.gas, q.right, q.tolerances.tol_M)[verdict.curve]
        pidx = curve.param_index
        bparam = (q.left.u, q.left.theta)[pidx]
        # a boundary within ten start offsets of S1 leaves no layer to resolve
        if abs(bparam - (s.u_plus, s.theta_plus)[pidx]) <= 10.0 * _S1_OFFSET * s.scale:
            return self._trivial_profile(q, s)
        lo, hi = curve.param_range
        if not lo <= bparam <= hi:
            raise ProfileDiverged(
                f"boundary parameter {bparam} is outside {curve.label}'s range "
                f"[{lo}, {hi}]; the verdict is for another boundary")
        leg = curve.leg(bparam)
        self._landing_check(q, PhasePoint(*leg.points[0]), pidx)
        prof = _profile(s, leg.xi, leg.points, curve.label, leg.rows)
        # strictly monotone: toward S1 the curve's parameter, coordinate
        # pidx of (u, theta), rises and the other one falls, and V moves with U
        signs = tuple(1 if lo > 0.0 else -1 if hi < 0.0 else 0
                      for lo, hi in zip(leg.diff_min, leg.diff_max))
        u_sign = 1 if pidx == 0 else -1
        prof.metrics["monotone_ok"] = signs == (u_sign, u_sign, -u_sign)
        prof.metrics["signs"] = signs
        prof.metrics["endpoint_gap"] = max(abs(prof.U[-1] - s.u_plus),
                                           abs(prof.Theta[-1] - s.theta_plus))
        prof.metrics["residual_sup"] = leg.residual_sup
        if leg.decay is not None:      # a gamma curve's, so the regime is subsonic
            rate, amplitude, rate_theta, n = leg.decay
            report = DecayReport(kind="exponential", rate=rate, amplitude=amplitude,
                                 rate_theta=rate_theta, n_tail=n)
        else:
            try:
                report = verify_decay(prof, classify_regime(s.mach_plus, q.tolerances.tol_M))
            except TailTooShort:
                report = None
        prof.metrics["decay"] = report
        return prof

    def _trivial_profile(self, q: Query, s: SystemData) -> Profile:
        pts = np.array([[q.left.u, q.left.theta]] * 2)
        prof = _profile(s, np.array([0.0, 1.0]), pts, CURVE_TRIVIAL, np.empty((0, 4)))
        gap = max(abs(q.left.u - s.u_plus), abs(q.left.theta - s.theta_plus))
        prof.metrics = {"monotone_ok": True, "signs": (0, 0, 0),
                        "residual_sup": 0.0, "endpoint_gap": gap,
                        "decay": DecayReport(kind="not_applicable")}
        return prof

    def _landing_check(self, q: Query, event_point: PhasePoint, pidx: int) -> None:
        """The landing point's value must match the boundary's to ten
        membership tolerances; a refined verdict's distance is this gap."""
        vidx = 1 - pidx
        gap = abs((event_point.u, event_point.theta)[vidx] - (q.left.u, q.left.theta)[vidx])
        lim = 10.0 * q.tolerances.tol_member * (q.right.u, q.right.theta)[vidx]
        if gap > lim:
            raise ProfileDiverged(
                f"profile landed {gap:.3e} away from the boundary data "
                f"(limit {lim:.3e}); membership was borderline")


def _profile(s: SystemData, xi: np.ndarray, pts: np.ndarray, curve: str,
             residual_rows: np.ndarray) -> Profile:
    """Profile from (u, theta) samples; V follows from the mass equation."""
    U = pts[:, 0]
    Theta = pts[:, 1]
    V = specific_volume(s, U)
    return Profile(xi=xi, V=V, U=U, Theta=Theta, trivial=curve == CURVE_TRIVIAL,
                   curve=curve, system=s, residual_rows=residual_rows)


def verify_residual(prof: Profile, s: SystemData) -> float:
    """``system.residual_sup`` of the profile's ``residual_rows``; 0 for a
    trivial profile."""
    return 0.0 if prof.trivial else residual_sup(s, prof.residual_rows)


def verify_decay(prof: Profile, regime: Regime) -> DecayReport:
    """Fit the tail decay of a profile and report the fitted constants.

    Subsonic profiles decay exponentially; the fitted rate should match the
    magnitude of the negative eigenvalue at S1.  The window and the fit are
    ``tracer.exponential_tail``'s, the one the curve's grid is fitted with:
    ``compute_profile`` reports the grid's fit instead when the profile's
    window rows are exactly the grid's.  Sonic profiles decay
    algebraically like 1/xi with xi * (u+ - U) approaching the reciprocal
    of the center-direction quadratic coefficient.

    Raises TailTooShort below ``TAIL_MIN`` samples in the tail window.
    """
    if prof.trivial:
        return DecayReport(kind="not_applicable")
    s = prof.system
    if regime.is_subsonic:
        slope, intercept, slope_th, n = exponential_tail(prof.xi, prof.U, prof.Theta, s)
        return DecayReport(kind="exponential", rate=float(-slope),
                           amplitude=float(math.exp(intercept)),
                           rate_theta=float(-slope_th), n_tail=n)
    y = np.abs(prof.U - s.u_plus)
    if regime.is_transonic:
        mask = (y >= 1e-8 * s.scale) & (y <= 1e-4 * s.scale) & (prof.xi > 0.0)
        n = int(np.count_nonzero(mask))
        if n < TAIL_MIN:
            raise TailTooShort(f"{n} samples in the algebraic tail window")
        exponent, _ = np.polyfit(np.log(prof.xi[mask]), np.log(y[mask]), 1)
        pmask = mask & (y <= 1e-5 * s.scale)
        prod = float(np.median(prof.xi[pmask] * (s.u_plus - prof.U[pmask])))
        fu, _fth = field_poly(prof.U[mask], prof.Theta[mask], s)
        d1, _ = np.polyfit(np.log(prof.xi[mask]), np.log(np.abs(fu)), 1)
        return DecayReport(kind="algebraic", exponent=float(exponent),
                           inv_coeff=prod, exponent_d1=float(d1), n_tail=n)
    raise ProfileDiverged("supersonic profiles do not exist")


def decay_to_dict(report: DecayReport | None) -> dict | None:
    """JSON-ready decay report (None when no fit was performed)."""
    return None if report is None else asdict(report)


def verdict_to_dict(v: Verdict, decay: DecayReport | None = None) -> dict:
    """JSON-ready dictionary with the stable verdict schema."""
    return {
        "outcome": "exists" if v.exists else "not_exists",
        "reason": v.reason,
        "regime": v.regime.tag if v.regime is not None else None,
        "mach_plus": v.mach_plus,
        "curve": v.curve,
        "curve_parameter": v.curve_parameter,
        "distance": v.distance,
        "nearest_curve": v.nearest_curve,
        "flux_gap": v.flux_gap,
        "decay": decay_to_dict(decay),
        "notes": list(v.notes),
    }


def export_profile_csv(prof: Profile, path) -> None:
    """Write the profile as ``xi,V,U,Theta`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xi", "V", "U", "Theta"])
        for row in zip(prof.xi, prof.V, prof.U, prof.Theta):
            writer.writerow([repr(float(x)) for x in row])
