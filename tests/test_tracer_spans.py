"""The benchmark's layer tracer still finds every entry point it wraps.

``perfbench/tracer.py`` names the functions and methods it wraps by string,
so renaming or deleting one breaks ``perfbench/run.py --trace 1`` without
failing any other test.  The tracer is loaded by path and never installed.
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
