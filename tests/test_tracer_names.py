"""The benchmark's tracer wraps package functions by name: every
``<layer>.<function>`` in ``TRACED`` of bench/tracer.py must name a function
in ``ofdmforge``, or ``bench/run.py --trace 1`` fails.  The names are read
with ``ast``, so no benchmark code is imported."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names() -> list[str]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py assigns no TRACED")


def test_traced_names_are_read():
    names = traced_names()
    assert names and len(set(names)) == len(names)
    assert "harness.plotdata.emit_plot_data" in names


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_package_function(name):
    layer, function = name.rsplit(".", 1)
    module = importlib.import_module(f"ofdmforge.{layer}")
    assert inspect.isfunction(getattr(module, function, None)), name
