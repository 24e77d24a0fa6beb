import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from inflow_layer import EndState, ExistenceEngine, GasParams, build_system

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible and its cost fixed
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def gas():
    return GasParams(1.4, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def right_subsonic():
    # canonical subsonic set: M+ = 1/sqrt(1.4)
    return EndState(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def right_transonic():
    return EndState(1.0, math.sqrt(1.4), 1.0)


@pytest.fixture(scope="session")
def right_supersonic():
    return EndState(1.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def right_subcase_b():
    # M+ ~ 0.2535 < sqrt((gamma-1)/(2 gamma)) ~ 0.37796, so alpha2 < 0
    return EndState(1.0, 0.3, 1.0)


@pytest.fixture
def graph_builds(monkeypatch):
    """The system of every ``slow_graph`` build this process makes while the
    test runs.  A build in a forked child, such as a ``run_sweep`` share, is
    not counted."""
    from inflow_layer import linearize
    builds = []
    build = linearize.slow_graph

    def counted(s, *args):
        builds.append(s)
        return build(s, *args)

    monkeypatch.setattr(linearize, "slow_graph", counted)
    return builds


@pytest.fixture(scope="session")
def engine():
    return ExistenceEngine()


@pytest.fixture(scope="session")
def subsonic_curves(engine, gas, right_subsonic):
    return engine.curves_for(gas, right_subsonic)


@pytest.fixture(scope="session")
def transonic_curves(engine, gas, right_transonic):
    return engine.curves_for(gas, right_transonic)


@pytest.fixture(scope="session")
def subcase_b_curves(engine, gas, right_subcase_b):
    return engine.curves_for(gas, right_subcase_b)


def random_system(rng, regime=None):
    """A random valid parameter set, optionally pinned to one regime."""
    gamma = rng.uniform(1.05, 2.2)
    R = 10.0 ** rng.uniform(-1.0, 1.0)
    mu = 10.0 ** rng.uniform(-1.0, 1.0)
    kappa = 10.0 ** rng.uniform(-1.0, 1.0)
    theta_p = 10.0 ** rng.uniform(-0.7, 0.7)
    v_p = 10.0 ** rng.uniform(-0.7, 0.7)
    if regime == "supersonic":
        mach = rng.uniform(1.01, 3.0)
    elif regime == "subsonic":
        mach = rng.uniform(0.05, 0.99)
    elif regime == "transonic":
        mach = 1.0
    else:
        mach = rng.uniform(0.05, 3.0)
    u_p = mach * math.sqrt(R * gamma * theta_p)
    g = GasParams(gamma, R, mu, kappa)
    return build_system(g, EndState(v_p, u_p, theta_p))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench(filename: str, name: str):
    """A module of the benchmark, loaded from its file as ``name``."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
