"""The benchmark's traced run wraps package functions by name; every name
it lists must still resolve, and every counter hook must accept what its
function returns, or ``perfbench/run.py --trace 1`` breaks."""
import ast
import importlib
import importlib.util
from pathlib import Path

from sparsedigraph import Digraph, random_digraph
from sparsedigraph.coloring import compute_wcol_order, tfa_augment, wreach_all
from sparsedigraph.duality import dominator_or_scattered
from sparsedigraph.steiner import dst_exact_subset, dst_fpt
from sparsedigraph.steiner_types import DstInstance

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


def test_span_hooks_accept_real_return_values():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    g = random_digraph(30, 90, 1)
    order = compute_wcol_order(g, 2)
    aug = tfa_augment(g, 2)
    sets = wreach_all(g, order.order, 2)
    duality = dominator_or_scattered(g, range(g.n), 1, 3)
    path = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    inst = DstInstance(path, 0, frozenset({3}), 2)
    subset_args = (path, 0, {3}, {3}, 2)
    fpt = dst_fpt(inst)
    calls = {
        "coloring.compute_wcol_order": ((g, 2), order),
        "coloring.tfa_augment": ((g, 2), aug),
        "coloring.wreach_all": ((g, order.order, 2), sets),
        "duality.dominator_or_scattered": ((g, range(g.n), 1, 3), duality),
        "steiner.dst_fpt": ((inst,), fpt),
        "steiner.dst_exact_subset": (subset_args, dst_exact_subset(*subset_args)),
    }
    assert set(spans.HOOKS) == set(calls)
    tracer = spans.Tracer()
    for name, (args, result) in calls.items():
        spans.HOOKS[name](tracer, args, result)
    assert tracer.counters["coloring.aug_arcs"] == sum(map(len, aug.layers))
    assert tracer.counters["coloring.wreach_total"] == sum(map(len, sets))
    assert tracer.counters["duality.anchors"] == len(duality.anchors)
    assert tracer.counters["steiner.dst_fpt.nodes"] == sum(fpt.nodes_per_budget)
    assert tracer.counters["steiner.dst_exact_subset.hits"] == 1
    assert tracer.counters["coloring.compute_wcol_order.repeats"] == 0
