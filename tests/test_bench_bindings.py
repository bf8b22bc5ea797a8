"""The benchmark reaches into the package by name; each name must still resolve.

`benchmarks/tracing.py` is loaded by path, the way `benchmarks/oracles.py`
loads `tests/_oracles.py`, and `workloads.py` and `bench.py` are read as
syntax trees, so that a deletion or a renamed parameter inside the package
that breaks `bench.py` fails here too, not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
# the package modules `workloads.py` imports, and `bench.py` reads as `wl.<module>`
MODULES = ("bounds", "cli", "compare", "disk", "geometry", "radial")

_spec = importlib.util.spec_from_file_location("_tracing", BENCH / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)

_BINDINGS = sorted({entry[:2] for entry in _tracing._SPANS + _tracing._LEAVES})


@pytest.mark.parametrize("module,attribute", _BINDINGS)
def test_traced_binding_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"driftspectra.{module}"), attribute, None))


def _references(name):
    """(line, module, attribute, call or None) of each `<module>.<attribute>`
    the script reads, `wl.<module>.<attribute>` included."""
    tree = ast.parse((BENCH / name).read_text())
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
                and base.value.id == "wl":
            module = base.attr
        else:
            module = base.id if isinstance(base, ast.Name) else None
        if module in MODULES:
            yield node.lineno, module, node.attr, calls.get(id(node))


_REFERENCES = {}
for _script in ("workloads.py", "bench.py"):
    for _line, _module, _attribute, _call in _references(_script):
        _REFERENCES.setdefault((_script, _module, _attribute), []).append((_line, _call))


def test_the_scripts_read_the_package():
    # `workloads.py` still imports these modules, and both scripts read some
    assert "from driftspectra import " + ", ".join(MODULES) in (BENCH / "workloads.py").read_text()
    assert {script for script, _, _ in _REFERENCES} == {"workloads.py", "bench.py"}


@pytest.mark.parametrize("script,module,attribute", sorted(_REFERENCES),
                         ids=[f"{s}-{m}.{a}" for s, m, a in sorted(_REFERENCES)])
def test_benchmark_reference_resolves(script, module, attribute):
    target = getattr(importlib.import_module(f"driftspectra.{module}"), attribute, None)
    assert target is not None, f"{script}: driftspectra.{module} has no {attribute}"
    for line, call in _REFERENCES[script, module, attribute]:
        if call is None:
            continue
        # every keyword it passes is a parameter, and so is every positional
        # argument unless they are unpacked
        positional = [] if any(isinstance(a, ast.Starred) for a in call.args) else call.args
        keywords = [k.arg for k in call.keywords if k.arg is not None]
        try:
            inspect.signature(target).bind_partial(*positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{script}:{line}: driftspectra.{module}.{attribute}: {exc}")
