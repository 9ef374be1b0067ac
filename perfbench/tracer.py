"""Outside-in layer tracing for dlforge.

``install(tracer)`` wraps the public entry points of each dlforge layer so
that every call opens a span.  Nothing under ``src/`` changes: module-level
functions are re-bound in every ``dlforge`` module that imported them (a
``from .x import f`` binds the name at import time), and methods are
replaced once on their class.

A span's self time is its duration minus the part covered by the spans
opened inside it, so the per-layer times add up to the traced wall time of
the work without double counting.  Counts are exact.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute or Class.method, span name).  GradedPolynomial.__mul__
# is handled separately because its span name depends on the scalar ring.
SPANS = (
    ("dlforge.expressions", "parse_expression", "expressions.parse"),
    ("dlforge.expressions", "format_expression", "expressions.format"),
    ("dlforge.substitutions", "SubstitutionMap._subst", "substitutions.subst"),
    ("dlforge.substitutions", "suspend", "substitutions.subst"),
    ("dlforge.rewriting", "normalize", "rewriting.normalize"),
    ("dlforge.rewriting", "normalize_word", "rewriting.normalize_word"),
    ("dlforge.polynomial", "graded_inverse", "polynomial.inverse"),
    ("dlforge.polynomial", "GradedPolynomial.inverse", "polynomial.inverse"),
    ("dlforge.series", "TruncatedSeries.__mul__", "series.mul"),
    ("dlforge.homology", "DLModel.q", "homology.q"),
    ("dlforge.homology", "map_p", "homology.map_p"),
    ("dlforge.homology", "check_dl_compatibility", "homology.sweep"),
    ("dlforge.homology", "indeterminacy_scan", "homology.scan"),
    ("dlforge.formal_groups", "appendix_pipeline", "formal_groups.pipeline"),
    ("dlforge.formal_groups", "verify_isogeny_derivative", "formal_groups.isogeny"),
    ("dlforge.formal_groups", "check_associativity", "formal_groups.assoc"),
    ("dlforge.hopf_ring", "verify_gotcha_chain", "hopf_ring.chain"),
    ("dlforge.suites", "run_suite", "suites.run_suite"),
    ("dlforge.suites", "emit_report", "suites.emit_report"),
)

# Spans whose function recurses into itself: a nested call is folded into
# the outer span instead of opening a span per recursion level.
FOLDED = {"substitutions.subst"}

# Every per-layer metric, in report order: span self times ("_s"), call
# counts ("_calls") and the counts read at the end ("_entries", terms_out).
TIMES = (
    "polynomial.mul_gf2",
    "polynomial.inverse",
    "polynomial.mul_qq",
    "series.mul",
    "homology.q",
    "homology.map_p",
    "homology.sweep",
    "homology.scan",
    "formal_groups.pipeline",
    "formal_groups.isogeny",
    "formal_groups.assoc",
    "hopf_ring.chain",
    "rewriting.normalize",
    "rewriting.normalize_word",
    "expressions.parse",
    "expressions.format",
    "substitutions.subst",
    "suites.run_suite",
    "suites.emit_report",
)
CALLS = (
    "polynomial.mul_gf2",
    "polynomial.mul_qq",
    "series.mul",
    "homology.q",
    "homology.map_p",
    "formal_groups.pipeline",
    "hopf_ring.chain",
    "rewriting.adem_step",
)
COUNTS = (
    "polynomial.terms_out",
    "homology.mono_cache_entries",
    "rewriting.word_cache_entries",
    "rewriting.mono_cache_entries",
)


class Tracer:
    """Span stack with self-time and call-count accumulators."""

    def __init__(self):
        self.stack = []  # [name, start, time covered by child spans]
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.models = []
        self.contexts = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        if name in FOLDED and stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        self.calls[name] = self.calls.get(name, 0) + 1
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            duration = time.perf_counter() - frame[1]
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
            if stack:
                stack[-1][2] += duration

    def summary(self):
        """Per-layer metrics of the work traced so far, as a flat dict."""
        counts = dict(self.counts)
        counts["homology.mono_cache_entries"] = sum(len(m._mono_cache) for m in self.models)
        counts["rewriting.word_cache_entries"] = sum(len(c._word_cache) for c in self.contexts)
        counts["rewriting.mono_cache_entries"] = sum(len(c._mono_cache) for c in self.contexts)
        out = {name + "_s": self.self_s.get(name, 0.0) for name in TIMES}
        out.update({name + "_calls": self.calls.get(name, 0) for name in CALLS})
        out.update({name: counts.get(name, 0) for name in COUNTS})
        return out


def _span(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original, replacement):
    """Point every dlforge module-level name bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname != "dlforge" and not modname.startswith("dlforge."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the layer entry points of the imported dlforge package."""
    for modname, target, name in SPANS:
        module = importlib.import_module(modname)
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _span(tracer, name, vars(cls)[meth]))
        else:
            original = getattr(module, target)
            _rebind(original, _span(tracer, name, original))

    from dlforge import homology, polynomial, rewriting
    from dlforge.expressions import GeneratorContext

    gf2 = polynomial.GF2
    mul = polynomial.GradedPolynomial.__mul__

    def graded_mul(self, other):
        if self.ring.scalars is gf2:
            product = tracer.call("polynomial.mul_gf2", mul, (self, other), {})
            tracer.count("polynomial.terms_out", len(product.terms))
            return product
        return tracer.call("polynomial.mul_qq", mul, (self, other), {})

    polynomial.GradedPolynomial.__mul__ = graded_mul

    adem_step = rewriting.adem_step

    def counted_adem_step(*args, **kwargs):
        tracer.calls["rewriting.adem_step"] = tracer.calls.get("rewriting.adem_step", 0) + 1
        return adem_step(*args, **kwargs)

    _rebind(adem_step, counted_adem_step)

    for cls, registry in ((homology.DLModel, tracer.models), (GeneratorContext, tracer.contexts)):
        init = cls.__init__

        def registering_init(self, *args, _init=init, _registry=registry, **kwargs):
            _init(self, *args, **kwargs)
            _registry.append(self)

        cls.__init__ = registering_init
