"""What perfbench's span tracer reads of the package, checked without a
traced run.

``perfbench/tracing.py`` imports ``zeno_ent.<m>`` for every name in its
``MODULES`` and wraps each public function of ``search`` as
``wrapper(f, *args, **kwargs)``, taking its first argument for the
objective.  A module renamed away, or a search function whose objective is
not its first parameter, breaks the traced benchmark; it shows here.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_functions(module):
    # the functions the tracer wraps: public, and defined in the package
    return [obj for name, obj in vars(module).items()
            if not name.startswith("_") and isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("zeno_ent.")]


@pytest.mark.parametrize("name", _load_tracing().MODULES)
def test_tracer_modules_import(name):
    assert _public_functions(importlib.import_module(f"zeno_ent.{name}"))


def _first_parameter(fn, follow_wrapped=True):
    params = inspect.signature(fn, follow_wrapped=follow_wrapped).parameters
    return next(iter(params.values()), None)


def test_search_functions_take_the_objective_first():
    tracing = _load_tracing()
    assert "search" in tracing.MODULES
    search = importlib.import_module("zeno_ent.search")
    functions = [f for f in _public_functions(search) if f.__module__ == "zeno_ent.search"]
    assert functions
    for fn in functions:
        first = _first_parameter(fn)
        assert first is not None, fn.__name__
        assert first.kind in (first.POSITIONAL_ONLY, first.POSITIONAL_OR_KEYWORD), fn.__name__
        assert first.default is first.empty, fn.__name__
        # the tracer's wrapper takes the objective by the same name
        wrapper = tracing.Tracer()._search_span(f"search.{fn.__name__}", fn)
        assert _first_parameter(wrapper, follow_wrapped=False).name == first.name
