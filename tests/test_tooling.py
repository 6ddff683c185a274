"""Guards for the benchmark's tooling, which names package functions."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    """SPAN_FUNCTIONS + LEAF_FUNCTIONS, read from the file without running it."""
    names = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in (
                    "SPAN_FUNCTIONS", "LEAF_FUNCTIONS"):
                names[target.id] = ast.literal_eval(node.value)
    return names["SPAN_FUNCTIONS"] + names["LEAF_FUNCTIONS"]


def test_traced_functions_still_exist():
    # the tracer's install step raises AttributeError on a missing name
    names = traced_names()
    assert len(names) > 10
    for qualname in names:
        module_name, func_name = qualname.split(".")
        module = importlib.import_module(f"gmms.{module_name}")
        assert callable(getattr(module, func_name, None)), qualname
