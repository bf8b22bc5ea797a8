"""Spans and counters recorded from outside the package.

A `Tracer` wraps the module attributes that callers look up at call time
(`radial.principal_eigenpair`, `disk.splu`, `radial.brentq`, ...) and
restores every one of them when the traced block ends, so untraced runs
measure unmodified code.  Each span records its name, start, end, parent
and operation id; high-frequency leaf calls (per-scalar geometry calls and
LU triangular solves) are folded into counters and into their parent's
child time instead of becoming spans of their own.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module name, attribute, span name, hook).  Several modules bind the same
# function under their own name; each binding is wrapped separately.
_SPANS = [
    ("radial", "principal_eigenpair", "radial.principal", "principal"),
    ("radial", "assemble_spectrum", "radial.spectrum", "spectrum"),
    ("radial", "brentq", "radial.brentq", "brentq"),
    ("compare", "run_corpus", "compare.corpus", None),
    ("cli", "run_corpus", "compare.corpus", None),
    ("compare", "run_case", "compare.case", None),
    ("compare", "riccati_uniqueness", "compare.riccati", None),
    ("cli", "riccati_uniqueness", "compare.riccati", None),
    ("disk", "assemble_operator", "disk.assemble", None),
    ("bounds", "assemble_operator", "disk.assemble", None),
    ("disk", "splu", "disk.splu", "splu"),
    ("disk", "principal_eigenpair_2d", "disk.eigenpair_2d", "eigenpair_2d"),
    ("disk", "solve_principal", "disk.solve_principal", None),
    ("cli", "solve_principal", "disk.solve_principal", None),
    ("disk", "adjoint_principal", "disk.adjoint", None),
    ("bounds", "barta_bracket", "bounds.barta", None),
    ("cli", "barta_bracket", "bounds.barta", None),
    ("bounds", "solve_G_V", "bounds.solve_G_V", None),
    ("cli", "solve_G_V", "bounds.solve_G_V", None),
    ("bounds", "holland_bound", "bounds.holland", "holland"),
    ("cli", "holland_bound", "bounds.holland", "holland"),
    ("bounds", "solve_w_u", "bounds.solve_w_u", None),
    ("bounds", "splu", "bounds.splu", "splu"),
]

# leaf calls counted and timed without a span: compare binds geometry here
_LEAVES = [
    ("compare", "extra_drift_profile", "geometry.extra_drift_profile"),
]


def ball_key(ball) -> tuple:
    """Parameter fingerprint of a model ball, for counting distinct solves."""
    ts = np.linspace(0.1, 0.9, 5) * ball.r0
    rho = np.asarray(ball.rho.eval(ts)[0], dtype=float)
    h = np.asarray(ball.drift.h(ts), dtype=float)
    return (ball.m, round(ball.r0, 12), *np.round(rho, 12), *np.round(h, 12))


class _FactorProxy:
    """Stands in for a SuperLU factor and times its triangular solves."""

    def __init__(self, lu, tracer: "Tracer", layer: str):
        self._lu = lu
        self._tracer = tracer
        self._layer = layer

    def solve(self, rhs, trans="N"):
        t0 = time.perf_counter()
        out = self._lu.solve(rhs, trans=trans)
        self._tracer.leaf(f"{self._layer}.lu_solve", time.perf_counter() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span tree and counters for one traced pass."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent id, op id, child seconds]
        self.counters = Counter()
        self.compare_balls = set()
        self._stack = []
        self._op = None
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op=None):
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter() - self._origin, None, parent, self._op, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter() - self._origin
            if parent is not None:
                self.spans[parent][5] += rec[2] - rec[1]

    def leaf(self, name: str, seconds: float):
        self.counters[name + ".calls"] += 1
        self.counters[name + "_s"] += seconds
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[s][0].startswith(prefix) for s in self._stack)

    # -- hooks: counters read from arguments and returned objects ---------

    def _hook(self, hook, args, kwargs, result):
        c = self.counters
        if hook == "principal" and self._inside("compare."):
            c["compare.principal.calls"] += 1
            self.compare_balls.add(ball_key(args[0] if args else kwargs["ball"]))
        elif hook == "spectrum":
            # the k loop stops at the first level with no root under the cutoff
            c["radial.spectrum.levels"] += max(e.k for e in result.entries) + 2
        elif hook == "eigenpair_2d":
            c["disk.iterations"] += result.iterations
            c["disk.restarts"] += result.restarts
        elif hook == "holland":
            c["bounds.holland.fast_path"] += int(result.fast_path)

    def _wrap(self, fn, name, hook):
        tracer = self

        if hook == "brentq":
            def wrapper(f, a, b, *args, **kwargs):
                with tracer.span(name):
                    root, info = fn(f, a, b, *args, full_output=True, **kwargs)
                tracer.counters["radial.brentq.calls"] += 1
                tracer.counters["radial.brentq.fevals"] += info.function_calls
                tracer.counters["radial.brentq.roots"] += int(info.converged)
                return root
        elif hook == "splu":
            layer = name.split(".")[0]

            def wrapper(A, *args, **kwargs):
                with tracer.span(name):
                    lu = fn(A, *args, **kwargs)
                tracer.counters[f"{layer}.splu.calls"] += 1
                tracer.counters[f"{layer}.lu_nnz"] += lu.nnz
                tracer.counters[f"{layer}.a_nnz"] += A.nnz
                return _FactorProxy(lu, tracer, layer)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                tracer.counters[name + ".calls"] += 1
                if hook:
                    tracer._hook(hook, args, kwargs, result)
                return result
        return wrapper

    def _wrap_leaf(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer.leaf(name, time.perf_counter() - t0)
            return result
        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every listed binding; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name, hook in _SPANS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, hook))
            for mod_name, attr, name in _LEAVES:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap_leaf(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- summaries ---------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        table = {}
        for name, start, end, _parent, _op, child in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return table

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans if n == name)

    def dump_spans(self) -> list:
        keys = ("name", "start_s", "end_s", "parent", "op", "child_s")
        return [dict(zip(keys, rec)) for rec in self.spans]
