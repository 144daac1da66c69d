"""The benchmark tracer (perfbench/tracer.py) wraps tablesync functions and
methods by name; a rename must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py loaded from its file; install() is never called."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name, attr, name", tracer.FUNCTIONS, ids=[f[2] for f in tracer.FUNCTIONS])
def test_traced_function_exists(module_name, attr, name):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "module_name, cls_name, attr, name", tracer.METHODS, ids=[f"{m[1]}.{m[2]}" for m in tracer.METHODS]
)
def test_traced_method_exists(module_name, cls_name, attr, name):
    # install() wraps the method the class itself defines, not an inherited one.
    cls = getattr(importlib.import_module(module_name), cls_name, None)
    assert isinstance(cls, type), f"{module_name}.{cls_name}"
    assert callable(vars(cls).get(attr)), f"{module_name}.{cls_name}.{attr}"
