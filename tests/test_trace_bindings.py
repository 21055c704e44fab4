"""The campaign benchmark's trace points resolve in the program.

``perfbench/tracing.py`` wraps the call-site bindings listed in its
``BINDINGS`` table by module and attribute name.  A binding whose name
the program no longer defines makes every traced benchmark run fail, so
each one is resolved here the way the tracer's installer resolves it:
the attribute must live directly on its module or class.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for _, _, module_name, attr in module.BINDINGS]


@pytest.mark.parametrize(
    "module_name, attr", _bindings(), ids=lambda value: str(value)
)
def test_binding_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert name in vars(owner), f"{module_name}.{attr} is not defined"
    assert callable(vars(owner)[name])
