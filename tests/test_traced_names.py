"""The benchmark's traced run wraps package functions by name; every name
it lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_targets():
    """``TARGETS`` from perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_traced_names_resolve():
    targets = traced_targets()
    assert targets
    for module, attribute, _ in targets:
        obj = importlib.import_module(f"sparsedigraph.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"sparsedigraph.{module}.{attribute} is gone"
            obj = getattr(obj, part)
        assert callable(obj)
