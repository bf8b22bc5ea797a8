"""The benchmark tracer wraps package attributes by name; each one must exist.

`benchmarks/tracing.py` is loaded by path, the way `benchmarks/oracles.py`
loads `tests/_oracles.py`, so that a deletion inside the package that
breaks `bench.py --trace 1` fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "_tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)

_BINDINGS = sorted({entry[:2] for entry in _tracing._SPANS + _tracing._LEAVES})


@pytest.mark.parametrize("module,attribute", _BINDINGS)
def test_traced_binding_exists(module, attribute):
    assert hasattr(importlib.import_module(f"driftspectra.{module}"), attribute)
