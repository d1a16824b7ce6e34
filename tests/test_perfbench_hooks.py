"""The benchmark's traced run finds every hook it wraps.

perfbench/tracing.py wraps each (module, attribute) of its ENTRY_POINTS from outside: a function by name, a method
through the class's own __dict__.  A refactor that renames or drops one breaks the traced run with a KeyError or an
AttributeError; this reads the list, without installing it, and checks that each hook resolves in the package.
"""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.ENTRY_POINTS


_HOOKS = _entry_points()


@pytest.mark.parametrize("span, module, attr", _HOOKS, ids=[span for span, _, _ in _HOOKS])
def test_every_traced_entry_point_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # install reads the method from the class's own __dict__, not an inherited one
        assert callable(vars(getattr(owner, cls_name))[meth]), span
    else:
        assert callable(getattr(owner, attr)), span

