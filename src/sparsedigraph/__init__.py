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
"""
from .coloring import (
    Augmentation,
    WcolOrder,
    adm_exact,
    adm_of_order,
    compute_wcol_order,
    low_treedepth_coloring,
    order_from_augmentation,
    tfa_augment,
    wcol_exact,
    wcol_infty_exact,
    wcol_of_order,
    wreach_all,
)
from .digraph import (
    Digraph,
    LinearOrder,
    SccDecomposition,
    contract,
    degeneracy,
    format_digraph,
    in_ball,
    induced_subgraph,
    out_ball,
    parse_digraph,
    remove_vertices,
    scc,
)
from .domination import (
    distance_vector,
    neighborhood_complexity,
    redblue_dominate_approx,
    scds_approx,
    vc_dimension_distance_r,
)
from .duality import (
    ClosureResult,
    CoreResult,
    DualityResult,
    IndependenceTree,
    KernelResult,
    ReduceOutcome,
    closure,
    dominator_or_scattered,
    domination_core,
    independence_tree,
    kernelize,
    max_left_chain,
    projection,
    reduce_core,
)
from .errors import InfeasibleError, InternalInvariantError, SizeCapError
from .instances import (
    InstanceRecipe,
    apex_crown,
    bidirected_clique,
    crown,
    crown_subdivision_vertex,
    directed_path,
    random_digraph,
)
from .minors import (
    DirectedModel,
    contains_crown,
    grad,
    grad_lower_bound,
    is_depth_r_minor,
    top_grad,
    validate_model,
)
from .oracles import (
    alpha_r_exact,
    dst_exact_enum,
    dst_valid,
    gamma_r_exact,
    redblue_exact_enum,
    scss_exact_enum,
    verify_dominating,
    verify_scattered,
    verify_strongly_connected,
)
from .steiner import (
    DstFptResult,
    dst_exact_subset,
    dst_fpt,
    format_dst_instance,
    parse_dst_instance,
    preprocess_contract,
    scss_2approx,
    source_terminals,
)
from .steiner_types import DstInstance

__all__ = [
    "Augmentation",
    "ClosureResult",
    "CoreResult",
    "Digraph",
    "DirectedModel",
    "DstFptResult",
    "DstInstance",
    "DualityResult",
    "IndependenceTree",
    "InfeasibleError",
    "InstanceRecipe",
    "InternalInvariantError",
    "KernelResult",
    "LinearOrder",
    "ReduceOutcome",
    "SccDecomposition",
    "SizeCapError",
    "WcolOrder",
    "adm_exact",
    "adm_of_order",
    "alpha_r_exact",
    "apex_crown",
    "bidirected_clique",
    "closure",
    "compute_wcol_order",
    "contains_crown",
    "contract",
    "crown",
    "crown_subdivision_vertex",
    "degeneracy",
    "directed_path",
    "distance_vector",
    "dominator_or_scattered",
    "domination_core",
    "dst_exact_enum",
    "dst_exact_subset",
    "dst_fpt",
    "dst_valid",
    "format_digraph",
    "format_dst_instance",
    "gamma_r_exact",
    "grad",
    "grad_lower_bound",
    "in_ball",
    "independence_tree",
    "induced_subgraph",
    "is_depth_r_minor",
    "kernelize",
    "low_treedepth_coloring",
    "max_left_chain",
    "neighborhood_complexity",
    "order_from_augmentation",
    "out_ball",
    "parse_digraph",
    "parse_dst_instance",
    "preprocess_contract",
    "projection",
    "random_digraph",
    "redblue_dominate_approx",
    "redblue_exact_enum",
    "reduce_core",
    "remove_vertices",
    "scc",
    "scds_approx",
    "scss_2approx",
    "scss_exact_enum",
    "source_terminals",
    "tfa_augment",
    "top_grad",
    "validate_model",
    "vc_dimension_distance_r",
    "verify_dominating",
    "verify_scattered",
    "verify_strongly_connected",
    "wcol_exact",
    "wcol_infty_exact",
    "wcol_of_order",
    "wreach_all",
]

__version__ = "0.1.0"
