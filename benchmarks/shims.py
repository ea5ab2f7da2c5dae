"""Span tracing installed from outside the package.

``Tracer.install`` replaces the public functions of each layer with shims
that record one span per call: (name id, parent span index, start, end).
Spans stay in memory until ``metrics`` folds them into per-layer numbers;
``remove`` puts every original attribute back.  Nothing under ``src/`` is
edited: methods are patched on their class, module functions in every
``hypersymplectic`` module that binds the name, suite runners in
``scenarios._SUITE_RUNNERS``, and ``numpy.linalg`` functions on that module
(only calls made from package code open a span).

A layer is the first dotted part of a span name.  A span's self time is its
duration minus the durations of its direct children; a layer's ``self_s``
sums that over its spans, so closures defined in one module but run under
another module's span count toward the latter.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "hypersymplectic"

# (module, class, attribute, span name)
METHODS = (
    ("polynomials", "Polynomial", "__call__", "polynomials.call"),
    ("charts", "Point", "shifted", "charts.shifted"),
    ("charts", "Chart", "sample", "charts.sample"),
    ("calculus", "EndomorphismField", "matrix", "calculus.endomorphism_matrix"),
    ("fibration", "SectionMap", "jacobian", "fibration.jacobian"),
    ("fibration", "SectionMap", "jacobian_fd", "fibration.jacobian_fd"),
    ("structures", "FlatConnection", "curvature_residual", "structures.curvature_residual"),
    ("scenarios", "ReportDocument", "to_json", "scenarios.to_json"),
)

# module -> functions it defines; each is patched wherever it is bound
FUNCTIONS = {
    "cli": ("main",),
    "scenarios": ("build_scenario_model",),
    "fibration": (
        "verify_hypersymplectic",
        "section_pullback",
        "complex_submanifold_check",
        "recursion_operator",
    ),
    "special_kahler": ("special_symplectic_check", "kahler_reports", "induced_vs_restriction"),
    "structures": ("nijenhuis", "d_nabla_endo", "covariant_constancy"),
    "calculus": ("exterior_derivative", "lie_bracket", "vector_jacobian", "form_matrix"),
    "action_angle": ("verify_action_angle", "to_action_angle"),
}

# span names whose calls also add a work count: name -> (counter, size of the call)
WORK = {"polynomials.call": ("polynomials.terms", lambda args: len(args[0].terms))}


class Tracer:
    """Records spans while installed; one instance per measured process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.work: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- shims ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _shim(self, fn, name: str):
        sid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, parent, t0, t1)

        if name not in WORK:
            return shim
        counter, size = WORK[name]
        totals = self.work
        totals.setdefault(counter, 0)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            totals[counter] += size(args)
            return shim(*args, **kwargs)

        return counting

    def _linalg_shim(self, fn, name: str):
        traced = self._shim(fn, name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith(PACKAGE):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return shim

    def _patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict), remembering the original."""
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name)
            self._patch(cls, attr, self._shim(cls.__dict__[attr], name))
        for module, fn_names in FUNCTIONS.items():
            home = importlib.import_module(f"{PACKAGE}.{module}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                shim = self._shim(original, f"{module}.{fn_name}")
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._patch(mod, fn_name, shim)
        runners = importlib.import_module(f"{PACKAGE}.scenarios")._SUITE_RUNNERS
        for suite, runner in list(runners.items()):
            self._patch(runners, suite, self._shim(runner, f"scenarios.suite.{suite}"))
        import numpy.linalg

        for fn_name in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, fn_name)
            if callable(fn) and not isinstance(fn, type):
                self._patch(numpy.linalg, fn_name, self._linalg_shim(fn, f"linalg.{fn_name}"))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ----------------------------------------------------------

    def take(self) -> tuple[list, dict[str, int]]:
        """The recorded spans and work counters; the tracer starts empty again."""
        if len(self.stack) != 1:
            raise RuntimeError("spans still open")
        spans, work = list(self.spans), dict(self.work)
        self.spans.clear()
        for counter in self.work:
            self.work[counter] = 0
        return spans, work

    def metrics(self, spans: list, work: dict[str, int]) -> dict[str, float]:
        """Per-name ``.count`` and ``.s`` (inclusive, outermost call of a name
        only), per-layer ``self_s``, ``linalg.call.count`` and ``linalg.s``,
        and the work counters as ``.count``."""
        n = len(spans)
        child = [0.0] * n
        for sid, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        path: list[int] = []
        open_names: dict[int, int] = {}
        for idx, (sid, parent, t0, t1) in enumerate(spans):
            while path and path[-1] != parent:
                open_names[spans[path.pop()][0]] -= 1
            name = self.names[sid]
            layer = name.split(".", 1)[0]
            duration = t1 - t0
            out[f"{name}.count"] = out.get(f"{name}.count", 0) + 1
            if not open_names.get(sid):
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + duration - child[idx]
            if layer == "linalg":
                out["linalg.call.count"] = out.get("linalg.call.count", 0) + 1
                out["linalg.s"] = out.get("linalg.s", 0.0) + duration
            open_names[sid] = open_names.get(sid, 0) + 1
            path.append(idx)
        for counter, total in work.items():
            out[f"{counter}.count"] = total
        return out

    def write_spans(self, spans: list, path) -> None:
        """Tab-separated spans of one traced call, times relative to its first span."""
        origin = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for idx, (sid, parent, t0, t1) in enumerate(spans):
                fh.write(f"{idx}\t{parent}\t{self.names[sid]}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\n")
