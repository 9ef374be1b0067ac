"""The benchmark's layer tracer still finds every entry point it wraps and
every memo it counts.

``perfbench/tracer.py`` names the functions and methods it wraps, and the
memo attributes it reads, by string, so renaming or deleting one breaks
``perfbench/run.py --trace 1`` without failing any other test.  The tracer
is loaded by path and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, target, span", load_tracer().SPANS, ids=str)
def test_every_traced_entry_point_resolves(modname, target, span):
    module = importlib.import_module(modname)
    if "." in target:
        cls_name, meth = target.split(".")
        # install wraps the method found on the class itself, not an inherited one
        assert callable(vars(getattr(module, cls_name)).get(meth)), (target, span)
    else:
        assert callable(getattr(module, target, None)), (target, span)


def test_the_tracer_reads_the_memos_it_counts():
    # ``summary`` reads the memos of every context and model that ``install``
    # registers, by name; these two are registered by hand
    from dlforge.expressions import parse_context
    from dlforge.homology import MUHomology
    from dlforge.rewriting import normalize

    tracer = load_tracer().Tracer()
    context = parse_context("gen x deg 2\n")
    model = MUHomology(12)
    normalize("Q9 (x Q5 x)", context)
    model.q(4, model.b(1) * model.b(2))
    tracer.contexts.append(context)
    tracer.models.append(model)
    counts = {
        "homology.mono_cache_entries": len(model._mono_cache),
        "rewriting.word_cache_entries": len(context._word_cache),
        "rewriting.mono_cache_entries": len(context._mono_cache),
    }
    assert counts["homology.mono_cache_entries"] and counts["rewriting.mono_cache_entries"]
    summary = tracer.summary()
    assert {name: summary[name] for name in counts} == counts
