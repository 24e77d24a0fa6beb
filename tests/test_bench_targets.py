"""Every name the benchmark's traced run wraps must exist in the package.

The benchmark stops with WrapTargetMissing when a wrapped name is gone; this
test makes a refactor that moves such a name fail the test suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in spans.TARGETS])
def test_wrap_target_resolves(module, path):
    _owner, _name, value = spans._resolve(module, path)
    assert callable(value)


@pytest.mark.parametrize("module", spans.FIELD_FACTORIES)
def test_field_factory_resolves(module):
    _owner, _name, value = spans._resolve(module, "phase_field")
    assert callable(value)
