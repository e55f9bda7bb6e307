"""Vertex contract of the library: every exported function or class that
takes vertices refuses one outside ``0..n-1`` with a ValueError that names
it and says "out of range", whatever the other arguments.  No IndexError,
no InternalInvariantError, and no answer about a vertex that does not
exist.

``CASES`` lists each vertex parameter of the exports with a call that puts
one bad vertex there.  A coverage check reads the exports' signatures, so
a new export with a vertex parameter must join ``CASES`` or ``EXEMPT``.
"""
import inspect
import re

import pytest

import sparsedigraph
from sparsedigraph import (DstInstance, adm_of_order, bidirected_clique, closure,
                           compute_wcol_order, contract, directed_path, distance_vector,
                           dominator_or_scattered, dst_exact_subset, dst_valid,
                           gamma_r_exact, in_ball, independence_tree, induced_subgraph,
                           neighborhood_complexity, out_ball, preprocess_contract,
                           projection, redblue_dominate_approx, redblue_exact_enum,
                           reduce_core, remove_vertices, scss_2approx, scss_exact_enum,
                           verify_dominating, verify_scattered, verify_strongly_connected)

N = 3
PATH = directed_path(N)  # 0 -> 1 -> 2
CLIQUE = bidirected_clique(N)


def _dst(root=0, terminals=(2,)):
    return DstInstance(PATH, root, frozenset(terminals), 1)


# (export, parameter) -> a call with the bad vertex x in that parameter
CASES = {
    ("DstInstance", "root"): lambda x: _dst(root=x),
    ("DstInstance", "terminals"): lambda x: _dst(terminals=(2, x)),
    ("adm_of_order", "v"): lambda x: adm_of_order(PATH, compute_wcol_order(PATH, 1).order,
                                                  x, 1),
    ("closure", "anchors"): lambda x: closure(PATH, [0, x], 1),
    ("contract", "partition"): lambda x: contract(PATH, [[0, x]]),
    ("contract", "dead"): lambda x: contract(PATH, [], [x]),
    ("distance_vector", "v"): lambda x: distance_vector(PATH, x, [0], 1),
    ("distance_vector", "anchors"): lambda x: distance_vector(PATH, 2, [0, x], 1),
    ("dominator_or_scattered", "targets"): lambda x: dominator_or_scattered(PATH, [0, x],
                                                                            1, 2),
    ("dst_exact_subset", "root"): lambda x: dst_exact_subset(PATH, x, [2], [2], 2),
    ("dst_exact_subset", "terminals"): lambda x: dst_exact_subset(PATH, 0, [2, x], [2], 2),
    # sources must be terminals, so the bad source is a terminal too
    ("dst_exact_subset", "sources"): lambda x: dst_exact_subset(PATH, 0, [x], [x], 2),
    ("dst_valid", "root"): lambda x: dst_valid(PATH, x, frozenset({2}), [1]),
    ("dst_valid", "terminals"): lambda x: dst_valid(PATH, 0, frozenset({2, x}), [1]),
    ("dst_valid", "solution"): lambda x: dst_valid(PATH, 0, frozenset({2}), [1, x]),
    ("gamma_r_exact", "targets"): lambda x: gamma_r_exact(PATH, 1, [0, x]),
    ("in_ball", "v"): lambda x: in_ball(PATH, x, 1),
    ("independence_tree", "sequence"): lambda x: independence_tree(PATH, [0, x], 1),
    ("induced_subgraph", "vertices"): lambda x: induced_subgraph(PATH, [0, x]),
    ("neighborhood_complexity", "subset"): lambda x: neighborhood_complexity(PATH, [x], 1),
    ("out_ball", "v"): lambda x: out_ball(PATH, x, 1),
    ("preprocess_contract", "dead"): lambda x: preprocess_contract(_dst(), frozenset({x})),
    ("projection", "u"): lambda x: projection(PATH, x, [0], 1),
    ("projection", "anchors"): lambda x: projection(PATH, 1, [0, x], 1),
    ("redblue_dominate_approx", "red"): lambda x: redblue_dominate_approx(PATH, [2, x],
                                                                          [0, 1, 2], 1),
    ("redblue_dominate_approx", "blue"): lambda x: redblue_dominate_approx(PATH, [2],
                                                                           [1, x], 1),
    ("redblue_exact_enum", "red"): lambda x: redblue_exact_enum(PATH, [2, x], [0, 1, 2], 1),
    ("redblue_exact_enum", "blue"): lambda x: redblue_exact_enum(PATH, [2], [1, x], 1),
    ("reduce_core", "core"): lambda x: reduce_core(PATH, [0, x], 1, 2),
    ("remove_vertices", "removed"): lambda x: remove_vertices(PATH, [x]),
    ("scss_2approx", "terminals"): lambda x: scss_2approx(CLIQUE, [0, x], 1),
    ("scss_exact_enum", "terminals"): lambda x: scss_exact_enum(CLIQUE, [0, x], 1),
    ("verify_dominating", "dominators"): lambda x: verify_dominating(PATH, [0, x], 1),
    ("verify_scattered", "vertices"): lambda x: verify_scattered(PATH, [0, x], 1),
    ("verify_strongly_connected", "vertices"): lambda x: verify_strongly_connected(CLIQUE,
                                                                                   [x]),
}

EXEMPT = {
    # filters: a search only skips the vertices outside them, and never
    # enters a non-vertex
    ("in_ball", "within"), ("out_ball", "within"), ("projection", "removed"),
    # documented: a target outside 0..n-1 is never dominated
    ("verify_dominating", "targets"),
    # runs at every branching node of dst_fpt, whose callers pass checked
    # terminals
    ("source_terminals", "terminals"),
    # records of vertices in a graph they do not carry: routine results,
    # and the minor model that validate_model checks
    ("ClosureResult", "vertices"), ("CoreResult", "core"), ("CoreResult", "removed"),
    ("DirectedModel", "sources"), ("DstFptResult", "solution"),
    ("DualityResult", "anchors"), ("KernelResult", "core"), ("KernelResult", "removed"),
}

VERTEX_PARAMETERS = {
    "v", "u", "root", "terminals", "sources", "targets", "red", "blue", "anchors",
    "vertices", "sequence", "core", "dominators", "solution", "partition", "dead",
    "removed", "subset", "within",
}


def _vertex_parameters():
    for name in sparsedigraph.__all__:
        obj = getattr(sparsedigraph, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        for param in inspect.signature(obj).parameters:
            if param in VERTEX_PARAMETERS:
                yield name, param


def test_every_vertex_parameter_is_covered_or_exempt():
    found = set(_vertex_parameters())
    assert found - CASES.keys() - EXEMPT == set()
    # no stale entries either
    assert (CASES.keys() | EXEMPT) - found == set()
    assert CASES.keys().isdisjoint(EXEMPT)


@pytest.mark.parametrize("bad", [-1, N])
@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_bad_vertex_raises_out_of_range(case, bad):
    with pytest.raises(ValueError) as info:
        result = CASES[case](bad)
        pytest.fail(f"returned {result!r}")
    message = str(info.value)
    assert "out of range" in message
    assert re.search(rf"(?<![-\w]){bad}\b", message), message
