"""Span tracer installed into a qpskit process from outside the package.

Nothing in ``src/qpskit`` knows about it: the benchmark replaces public
functions and methods with timing wrappers after ``import qpskit.cli``. A
function imported by name (``from .expr import commutator``) is replaced in
every qpskit module that holds it, so callers see the wrapper.

Spans are kept in memory as ``[name, layer, start, end, parent, child_s]``,
where ``parent`` is the index of the enclosing span (-1 at top level) and
``child_s`` the part of the span covered by nested spans and counters. Hot
leaf calls (sympy ``PolyElement.cancel``, ``numpy.fft``, ``numpy.einsum``)
are counters instead of spans: a call count and a total time, charged to
the enclosing span as child time. A layer's self time is the sum over its
spans of ``end - start - child_s`` plus the time of its counters.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

# (module, attribute, layer, span name), wrapped wherever imported. Suite and
# numeric-report entry points are wrapped only in qpskit.cli, so nested uses
# (emrelation runs check_table) are not counted twice.
FUNCTION_SPANS = [
    ("generators", "foldy_generators", "generators", "generators.build"),
    ("generators", "bargmann_generators", "generators", "generators.build"),
    ("expr", "commutator", "expr", "expr.commutator"),
    ("expr", "normal_form", "expr", "expr.normal_form"),
    ("parser", "parse_expr", "parser", "parser.parse"),
    ("grid", "realize", "grid", "grid.realize"),
    ("localization", "nw_evolution", "localization", "localization.nw_evolution"),
    ("localization", "microcausality_check", "localization",
     "localization.microcausality"),
    ("fock", "expectation_suite", "fock", "fock.expectation_suite"),
]
CLI_SUITES = {
    "check_table": None,     # label from the ``which`` argument
    "lemma_suite": "lemmas",
    "casimirs": "casimirs",
    "pauli_lubanski": "pl",
    "boost_matrix_identities": "boost",
    "energy_momentum_constraint_check": "emrelation",
}
TABLE_SUITES = {"poincare": "poincare", "poincare_spinless": "spinless",
                "bargmann": "bargmann"}
CLI_NUMERIC = {
    "numeric_table_report": "numcheck.table",
    "numeric_lemma_report": "numcheck.lemma",
    "numeric_pl_report": "numcheck.pl",
    "numeric_casimir_report": "numcheck.casimir",
}
# (module, class, method, layer, span name)
METHOD_SPANS = [
    ("expr", "OperatorExpr", "__mul__", "expr", "expr.mul"),
    ("grid", "LinearMap", "apply", "grid", "grid.apply"),
    ("grid", "LinearMap", "__call__", "grid", "grid.apply"),
    ("grid", "GridRep", "to_position", "grid", "grid.to_position"),
    ("grid", "GridRep", "to_momentum", "grid", "grid.to_momentum"),
    ("report", "VerificationReport", "to_json", "report", "report.to_json"),
]
# FockField and FockOperator: every public method plus these is a span
FOCK_DUNDERS = ("__init__", "__matmul__", "__add__", "__sub__", "__mul__", "__neg__")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(lambda: [0, 0.0])   # name -> [calls, s]
        self.counter_self = defaultdict(float)           # layer -> s
        self.render = {}          # id(rendered text) -> (seconds, text)
        self.render_ms = 0.0
        self.render_chars = 0
        self.now = time.perf_counter

    def span(self, name, layer, fn, label=None):
        """Wrap ``fn`` so each call records a span; ``label(args, kwargs)``
        may refine the span name per call."""
        spans, stack, now = self.spans, self.stack, self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if label is None else label(args, kwargs), layer,
                   now(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = now()
                stack.pop()
                if rec[4] >= 0:
                    spans[rec[4]][5] += rec[3] - rec[2]
        return wrapper

    def counter(self, name, layer, fn):
        spans, stack, now = self.spans, self.stack, self.now
        tally = self.counters[name]
        layer_self = self.counter_self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                tally[0] += 1
                tally[1] += dt
                layer_self[layer] += dt
                if stack:
                    spans[stack[-1]][5] += dt
        return wrapper

    def renderer(self, fn):
        """render_expr/render_scalar: remember each output so that
        ``VerificationReport.add`` can tell which became a failing residual."""
        timed = self.span("parser.render", "parser", fn)
        render, now = self.render, self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            out = timed(*args, **kwargs)
            render[id(out)] = (now() - t0, out)
            return out
        return wrapper

    def report_add(self, fn):
        @functools.wraps(fn)
        def wrapper(report, *args, **kwargs):
            entry = fn(report, *args, **kwargs)
            hit = self.render.get(id(entry.residual))
            if hit is not None and hit[1] is entry.residual \
                    and entry.asserted and not entry.passed:
                self.render_ms += hit[0] * 1e3
                self.render_chars += len(entry.residual)
            self.render.clear()
            return entry
        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> [calls, inclusive seconds] over spans and counters."""
        out = defaultdict(lambda: [0, 0.0])
        for name, _, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        for name, (calls, secs) in self.counters.items():
            out[name][0] += calls
            out[name][1] += secs
        return dict(out)

    def self_times(self):
        out = defaultdict(float, self.counter_self)
        for _, layer, start, end, _, child in self.spans:
            out[layer] += end - start - child
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "child_s"], "spans": self.spans}, fh)


class _NumpyProxy(types.ModuleType):
    """Stands in for ``numpy`` inside one module, with some names wrapped."""

    def __init__(self, real, overrides):
        super().__init__(real.__name__)
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _rebind(modules, original, wrapped):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer):
    """Wrap qpskit's public layer entry points; call after import qpskit.cli."""
    import importlib

    import numpy as np
    from sympy.polys.rings import PolyElement

    names = ("cli", "coeffs", "expr", "parser", "report", "generators", "grid",
             "numcheck", "localization", "fock", "spin")
    mods = {n: importlib.import_module(f"qpskit.{n}") for n in names}
    modules = list(mods.values())

    for mod, attr, layer, span in FUNCTION_SPANS:
        original = getattr(mods[mod], attr)
        _rebind(modules, original, tracer.span(span, layer, original))

    def suite_label(fixed):
        if fixed is not None:
            return lambda args, kwargs: f"generators.suite.{fixed}"
        def label(args, kwargs):
            which = kwargs.get("which", args[1] if len(args) > 1 else "poincare")
            return f"generators.suite.{TABLE_SUITES.get(which, which)}"
        return label

    cli = mods["cli"]
    for attr, fixed in CLI_SUITES.items():
        original = getattr(cli, attr)
        setattr(cli, attr, tracer.span("generators.suite", "generators",
                                       original, label=suite_label(fixed)))
    for attr, span in CLI_NUMERIC.items():
        original = getattr(cli, attr)
        setattr(cli, attr, tracer.span(span, "numcheck", original))

    for mod, cls_name, meth, layer, span in METHOD_SPANS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tracer.span(span, layer, getattr(cls, meth)))

    fock = mods["fock"]
    for cls, prefix in ((fock.FockField, "fock."), (fock.FockOperator, "fock.op.")):
        for attr, fn in list(vars(cls).items()):
            if callable(fn) and (not attr.startswith("_") or attr in FOCK_DUNDERS):
                name = "fock.build" if (cls, attr) == (fock.FockField, "__init__") \
                    else prefix + attr.strip("_")
                setattr(cls, attr, tracer.span(name, "fock", fn))

    for attr in ("render_expr", "render_scalar"):
        original = getattr(mods["parser"], attr)
        _rebind(modules, original, tracer.renderer(original))
    report_cls = mods["report"].VerificationReport
    report_cls.add = tracer.report_add(report_cls.add)

    PolyElement.cancel = tracer.counter("coeffs.cancel", "coeffs",
                                        PolyElement.cancel)
    fft = _NumpyProxy(np.fft, {
        name: tracer.counter("grid.fft", "grid", getattr(np.fft, name))
        for name in ("fft", "ifft", "fftn", "ifftn")})
    mods["grid"].np = _NumpyProxy(np, {
        "fft": fft,
        "einsum": tracer.counter("grid.einsum", "grid", np.einsum)})
