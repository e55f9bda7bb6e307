"""Spans around the package's public functions, for the traced run.

A ``Tracer`` wraps each function in ``TARGETS`` and replaces every binding
of that function object in the ``sparsedigraph`` modules, so calls that
cross layers (duality -> coloring -> digraph) are caught as well as calls
from the command line.  ``Digraph`` is traced through its ``__init__`` so
that ``isinstance`` checks keep working.  Spans are kept in memory and only
recorded while a job is running; the benchmark's own checks run with no job
set and leave no spans.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name)
TARGETS = [
    ("digraph", "Digraph.__init__", "digraph.Digraph"),
    ("digraph", "degeneracy", "digraph.degeneracy"),
    ("digraph", "out_ball", "digraph.ball"),
    ("digraph", "in_ball", "digraph.ball"),
    ("digraph", "out_distances", "digraph.distances"),
    ("digraph", "in_distances", "digraph.distances"),
    ("digraph", "remove_vertices", "digraph.remove_vertices"),
    ("digraph", "contract", "digraph.contract"),
    ("digraph", "induced_subgraph", "digraph.induced_subgraph"),
    ("digraph", "scc", "digraph.scc"),
    ("digraph", "shortest_path", "digraph.shortest_path"),
    ("digraph", "parse_digraph", "digraph.parse_digraph"),
    ("coloring", "tfa_augment", "coloring.tfa_augment"),
    ("coloring", "order_from_augmentation", "coloring.order_from_augmentation"),
    ("coloring", "compute_wcol_order", "coloring.compute_wcol_order"),
    ("coloring", "wreach_all", "coloring.wreach_all"),
    ("domination", "redblue_dominate_approx", "domination.redblue_dominate_approx"),
    ("domination", "distance_vector", "domination.distance_vector"),
    ("duality", "dominator_or_scattered", "duality.dominator_or_scattered"),
    ("duality", "independence_tree", "duality.independence_tree"),
    ("duality", "max_left_chain", "duality.max_left_chain"),
    ("duality", "reduce_core", "duality.reduce_core"),
    ("duality", "domination_core", "duality.domination_core"),
    ("duality", "kernelize", "duality.kernelize"),
    ("minors", "grad_lower_bound", "minors.grad_lower_bound"),
    ("steiner", "dst_fpt", "steiner.dst_fpt"),
    ("steiner", "preprocess_contract", "steiner.preprocess_contract"),
    ("steiner", "dst_exact_subset", "steiner.dst_exact_subset"),
    ("steiner", "source_terminals", "steiner.source_terminals"),
    ("steiner", "scss_2approx", "steiner.scss_2approx"),
    ("oracles", "verify_dominating", "oracles.verify_dominating"),
    ("oracles", "verify_scattered", "oracles.verify_scattered"),
    ("oracles", "verify_strongly_connected", "oracles.verify_strongly_connected"),
    ("oracles", "dst_valid", "oracles.dst_valid"),
    ("cli", "main", "cli.main"),
]


def _repeat(tracer, args, result):
    key = (args[0], args[1])  # (graph, r); Digraph compares by value
    tracer.count("coloring.compute_wcol_order.repeats", key in tracer.job_orders)
    tracer.job_orders.add(key)


# counters read from return values: span name -> hook(tracer, args, result)
HOOKS = {
    "coloring.compute_wcol_order": _repeat,
    "coloring.tfa_augment": lambda t, a, res: t.count(
        "coloring.aug_arcs", sum(len(layer) for layer in res.layers)),
    "coloring.wreach_all": lambda t, a, res: t.count(
        "coloring.wreach_total", sum(len(s) for s in res)),
    "duality.dominator_or_scattered": lambda t, a, res: t.count(
        "duality.anchors", len(res.anchors)),
    "steiner.dst_fpt": lambda t, a, res: t.count(
        "steiner.dst_fpt.nodes", sum(res.nodes_per_budget)),
    "steiner.dst_exact_subset": lambda t, a, res: t.count(
        "steiner.dst_exact_subset.hits", res is not None),
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.stack: list[int] = []
        self.counters: dict = defaultdict(int)
        self.job = None
        self.job_orders: set = set()
        self._undo: list = []

    def count(self, name: str, amount=1):
        self.counters[name] += amount

    def start_job(self, job_id):
        self.job = job_id
        self.job_orders = set()

    def end_job(self):
        self.job = None
        self.job_orders = set()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self):
        import sparsedigraph.cli  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "sparsedigraph" or key.startswith("sparsedigraph.")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"sparsedigraph.{mod_name}"]
            if attr == "Digraph.__init__":
                cls = home.Digraph
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(name, cls.__init__)
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def layer_stats(self) -> dict:
        """span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = stats[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return stats

    def write(self, path: str):
        """One line per span: id, name, start, end, parent id, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
