"""Numerical existence classifier and profile tracer for stationary boundary
layers of the one-dimensional compressible Navier-Stokes inflow problem.

The package decides, for given gas constants and end states, whether a
boundary layer connecting the boundary data to the far field exists, traces
the existence curves in the (u, theta) phase plane, and computes and
verifies the layer profile.
"""

from .engine import (DecayReport, ExistenceEngine, Profile, Query, Tolerances,
                     Verdict, export_profile_csv, verdict_to_dict, verify_decay,
                     verify_residual)
from .errors import (ConfigError, DefectiveMatrix, DomainError, InvalidBoundary,
                     LayerError, NonFinite, OutOfRange, ProfileDiverged,
                     StepUnderflow, TailTooShort, TraceFailed,
                     UnexpectedTerminal)
from .gas import (EndState, FluxCheck, GasParams, Regime, check_flux_condition,
                  classify_regime, mach, pressure, sound_speed)
from .integrator import (Event, EventSpec, IntegrationResult,
                         IntegrationSettings, component_crosses, integrate,
                         left_region, near_equilibrium, theta_crosses_zero,
                         u_crosses_zero)
from .linearize import (EigenPair, SlowGraph, eigen_2x2, saddle_graph,
                        transonic_frame)
from .portrait import render_portrait
from .system import (PhasePoint, Region, SystemData, build_system, field_exact,
                     field_poly, jacobian, nullcline_h1, nullcline_h2,
                     phase_field, region_contains)
from .tracer import (Curve, Membership, TraceOptions, curve_membership,
                     export_curve_csv, export_curve_json, trace_gamma,
                     trace_sigma)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
