"""Algorithms for sparse directed graphs.

Submodules:

- ``digraph``: the core immutable digraph, distance balls, SCCs,
  contraction, degeneracy peeling, and the text exchange format.
- ``instances``: named graph families and seeded random generators.
- ``minors``: exact depth-r minor search and density (grad) computation.
- ``coloring``: weak reachability, weak coloring numbers, admissibility,
  transitive fraternal augmentations, and order extraction.
- ``steiner``: the directed Steiner tree FPT solver and the strongly
  connected Steiner 2-approximation.
- ``domination``: neighborhood complexity, distance-r VC dimension, and
  the red-blue / strongly connected dominating set approximations.
- ``duality``: projections, closures, independence trees, the
  dominator-or-scattered procedure, domination cores, and kernelization.
- ``oracles``: independent brute-force references and validators.
- ``acceptance``: the runnable acceptance suite (also ``selftest`` on
  the command line).

Importing the package runs none of them.  Every submodule in ``_EXPORTS``
is registered in ``sys.modules``, and on the package, as a lazy module
whose code runs at its first attribute access.  The package's own names
resolve through a module ``__getattr__`` (PEP 562), so ``from sparsedigraph
import Digraph`` runs ``digraph`` and what it imports, nothing more.
"""
import importlib.util
import sys

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "coloring": (
        "Augmentation", "WcolOrder", "adm_exact", "adm_of_order", "compute_wcol_order",
        "low_treedepth_coloring", "order_from_augmentation", "tfa_augment", "wcol_exact",
        "wcol_infty_exact", "wcol_of_order", "wreach_all",
    ),
    "digraph": (
        "Digraph", "LinearOrder", "SccDecomposition", "contract", "degeneracy",
        "format_digraph", "in_ball", "induced_subgraph", "out_ball", "parse_digraph",
        "remove_vertices", "scc",
    ),
    "domination": (
        "distance_vector", "neighborhood_complexity", "redblue_dominate_approx",
        "scds_approx", "vc_dimension_distance_r",
    ),
    "duality": (
        "ClosureResult", "CoreResult", "DualityResult", "IndependenceTree", "KernelResult",
        "ReduceOutcome", "closure", "dominator_or_scattered", "domination_core",
        "independence_tree", "kernelize", "max_left_chain", "projection", "reduce_core",
    ),
    "errors": ("InfeasibleError", "InternalInvariantError", "SizeCapError"),
    "instances": (
        "InstanceRecipe", "apex_crown", "bidirected_clique", "crown", "directed_path",
        "random_digraph",
    ),
    "minors": (
        "DirectedModel", "contains_crown", "grad", "grad_lower_bound", "is_depth_r_minor",
        "top_grad", "validate_model",
    ),
    "oracles": (
        "alpha_r_exact", "dst_exact_enum", "dst_valid", "gamma_r_exact",
        "redblue_exact_enum", "scss_exact_enum", "verify_dominating", "verify_scattered",
        "verify_strongly_connected",
    ),
    "steiner": (
        "DstFptResult", "dst_exact_subset", "dst_fpt", "parse_dst_instance",
        "preprocess_contract", "scss_2approx", "source_terminals",
    ),
    "steiner_types": ("DstInstance",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _register_lazy(module: str):
    """Put ``sparsedigraph.<module>`` in ``sys.modules`` and on the package
    unexecuted.  Called once per module: ``find_spec`` on a name already in
    ``sys.modules`` would read its ``__spec__`` and so run it."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    sys.modules[spec.name] = globals()[module] = lazy


for _module in _EXPORTS:
    _register_lazy(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
