"""Spans around the public functions of each uotcone module.

The wrappers live in the benchmark, not in the program: ``install`` replaces
each traced function in every module namespace that holds it (``cli`` and
``checks`` bind names at import), and ``uninstall`` puts the originals back,
so untraced rounds run the program exactly as shipped.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (module, function, span name, work done by one successful call, from its
# bound arguments)
TARGETS = (
    ("uotcone.config", "validate_config", "config.validate_config", None),
    ("uotcone.gaussian", "shoot_bvp", "gaussian.shoot_bvp", None),
    ("uotcone.gaussian", "integrate_geodesic", "gaussian.integrate_geodesic",
     lambda a: a["steps"]),
    ("uotcone.gaussian", "lyapunov_solve", "gaussian.lyapunov_solve", None),
    ("uotcone.cone", "integrate_cone", "cone.integrate_cone",
     lambda a: a["problem"].steps),
    ("uotcone.pde", "integrate_pde", "pde.integrate_pde",
     lambda a: a["steps"] * a["state"].grid.n),
    ("uotcone.pde", "solve_potential", "pde.solve_potential", None),
    ("uotcone.bb", "bb_action", "bb.bb_action", None),
    ("uotcone.bb", "from_small_trace", "bb.from_small_trace", None),
    ("uotcone.trace", "mass_quadratic_fit", "trace.mass_quadratic_fit", None),
)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, op, parent index, start, end, ok, work]
        self._stack = []
        self._undo = []
        self.op = None

    def _open(self, name):
        span = [name, self.op, self._stack[-1] if self._stack else -1,
                time.perf_counter(), 0.0, True, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, work=None):
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                self._close(span)
            if work:
                span[6] = work(signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "uotcone" or n.startswith("uotcone.")]
        for modname, attr, name, work in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original, work)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapped)

        trace_cls = sys.modules["uotcone.trace"].GeodesicTrace
        self._patch(trace_cls, "write_csv", self._wrap(
            "trace.write_csv", trace_cls.write_csv, lambda a: os.path.getsize(a["path"])))

        checks = sys.modules["uotcone.checks"]
        self._patch(checks, "ALL_CHECKS", tuple(
            self._wrap("checks." + c.__name__.removeprefix("check_"), c)
            for c in checks.ALL_CHECKS))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, op, parent, start, end, ok, work in self.spans:
                f.write(json.dumps({"name": name, "op": op, "parent": parent,
                                    "start": start, "end": end, "ok": ok,
                                    "work": work}) + "\n")
