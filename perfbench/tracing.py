"""Spans and counters recorded around oneroot's public functions.

A :class:`Tracer` replaces module attributes of the ``oneroot`` package with
wrappers while it is active and puts the originals back when it closes. Every
binding of the same function object across ``oneroot.*`` modules is replaced,
because the package imports functions by name (``closed_form`` calls the
``trace_distance`` bound in ``convexroof``, not the one in ``qstate``).

Spans are kept in memory as (name, start, end, parent index, phase) and
written out by :meth:`Tracer.dump` when the benchmark ends. The oracle's
objective is called ~10^5 times per state, so its evaluations are counted and
timed in aggregate instead of getting a span each.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.phase = "setup"
        self.objective_evals = 0
        self.objective_busy = 0.0
        self.fd_evals = 0          # 2 * dim per finite-difference gradient norm
        self.powell_nfev = 0       # summed nfev reported by the optimizer
        self.restart_minima: list[list[float]] = []  # one list per oracle call
        self._stack: list[int] = []
        self._restored: list[tuple[object, str, object]] = []

    # ---- patching ----

    def _bindings(self, module_name: str, attr: str):
        """Every (module, name) in oneroot.* bound to the same object."""
        target = getattr(sys.modules[module_name], attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "oneroot" or name.startswith("oneroot.")):
                continue
            for key, val in vars(mod).items():
                if val is target:
                    yield mod, key, val

    def wrap(self, module_name: str, attr: str, span: str | None = None,
             before=None, after=None, only_here: bool = False):
        """Record a span named ``span`` around every call of module.attr.

        ``before()`` runs before the call and ``after(result, args)`` after
        it, outside the span. ``only_here`` patches the named module's binding
        alone (for a third-party function such as scipy's ``minimize``).
        """
        name = span or f"{module_name.split('.')[-1]}.{attr}"
        orig = getattr(sys.modules[module_name], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.phase))
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.phase)
            if after is not None:
                after(out, args)
            return out

        targets = ([(sys.modules[module_name], attr, orig)] if only_here
                   else list(self._bindings(module_name, attr)))
        for mod, key, val in targets:
            self._restored.append((mod, key, val))
            setattr(mod, key, wrapper)

    def close(self):
        for mod, key, val in reversed(self._restored):
            setattr(mod, key, val)
        self._restored.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ---- oracle hooks ----

    def wrap_oracle(self):
        """Count objective evaluations, restarts and gradient probes."""
        cr = "oneroot.convexroof"
        orig_objective = sys.modules[cr].decomposition_objective
        tracer = self

        def objective(state, measure, nu):
            f, dim = orig_objective(state, measure, nu)

            def counted(x):
                t0 = perf_counter()
                try:
                    return f(x)
                finally:
                    tracer.objective_busy += perf_counter() - t0
                    tracer.objective_evals += 1

            return counted, dim

        for mod, key, val in list(self._bindings(cr, "decomposition_objective")):
            self._restored.append((mod, key, val))
            setattr(mod, key, objective)

        def on_minimize(res, _args):
            self.powell_nfev += int(res.nfev)
            if self.restart_minima:
                self.restart_minima[-1].append(float(res.fun))

        def on_fd(_out, args):
            self.fd_evals += 2 * int(np.asarray(args[1]).size)

        self.wrap(cr, "minimize", span="convexroof.minimize", after=on_minimize,
                  only_here=True)
        self.wrap(cr, "fd_gradient_norm", span="convexroof.fd_gradient_norm", after=on_fd)
        self.wrap(cr, "oracle_minimize", span="convexroof.oracle_minimize",
                  before=lambda: self.restart_minima.append([]))

    # ---- summaries ----

    def durations(self, name: str) -> np.ndarray:
        return np.array([t1 - t0 for n, t0, t1, _, _ in self.spans if n == name])

    def count(self, name: str, phase: str | None = None) -> int:
        return sum(1 for n, _, _, _, ph in self.spans
                   if n == name and (phase is None or ph == phase))

    def self_times(self, name: str, children: set[str]) -> np.ndarray:
        """Span durations of ``name`` minus their direct children in ``children``."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for n, t0, t1, parent, _ in self.spans:
            if parent in own and n in children:
                own[parent] -= t1 - t0
        return np.array(list(own.values()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [list(s) for s in self.spans],
                       "objective_evals": self.objective_evals,
                       "objective_busy_s": self.objective_busy,
                       "fd_evals": self.fd_evals,
                       "powell_nfev": self.powell_nfev,
                       "restart_minima": self.restart_minima}, fh)
