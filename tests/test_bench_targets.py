"""Every name the benchmark uses from the package must exist.

The benchmark stops with WrapTargetMissing when a wrapped name is gone, and
fails to start when a name its workloads import is gone; these tests make a
refactor that moves such a name fail the test suite instead.
"""

import pytest

from conftest import load_bench

spans = load_bench("spans.py", "bench_spans")


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in spans.TARGETS])
def test_wrap_target_resolves(module, path):
    _owner, _name, value = spans._resolve(module, path)
    assert callable(value)


@pytest.mark.parametrize("module", spans.FIELD_FACTORIES)
def test_field_factory_resolves(module):
    _owner, _name, value = spans._resolve(module, "phase_field")
    assert callable(value)


def test_workload_imports_resolve():
    # importing the module resolves its REASON_*, TERMINAL_* and CURVE_* names
    workloads = load_bench("workloads.py", "bench_workloads")
    assert workloads.NAMES == ("cold-cli", "trace-ladder", "query-mix", "sweep")
