"""Depth-r minor search and density computations against brute checks."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, apex_crown, bidirected_clique, crown, directed_path, random_digraph
from sparsedigraph.errors import SizeCapError
from sparsedigraph.minors import (
    DirectedModel,
    contains_crown,
    grad,
    grad_lower_bound,
    is_depth_r_minor,
    top_grad,
    validate_model,
)


def test_subgraph_is_depth0_minor():
    g = apex_crown(3)
    h = crown(3)
    model = is_depth_r_minor(h, g, 0)
    assert model is not None
    assert validate_model(h, g, 0, model)


def test_crown_in_itself():
    h = crown(3)
    model = is_depth_r_minor(h, h, 0)
    assert model is not None
    assert all(len(b) == 1 for b in model.branch_sets.values())


def test_single_arc_absorbs_midpoint():
    h = Digraph(2, [(0, 1)])
    g = directed_path(3)  # a -> x -> b
    model = is_depth_r_minor(h, g, 1)
    assert model is not None
    assert validate_model(h, g, 1, model)


def test_absorption_needs_positive_depth():
    # directed triangle inside its own 1-subdivision: only by absorbing
    # the subdivision vertices, which requires depth >= 1
    h = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    g = Digraph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    assert is_depth_r_minor(h, g, 0) is None
    model = is_depth_r_minor(h, g, 1)
    assert model is not None
    assert validate_model(h, g, 1, model)


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("r", [0, 1])
def test_validate_model_rejects_a_non_vertex(bad, r):
    # a branch set {bad} once validated at r = 0, and an arc image
    # (3, 1) raised IndexError from the host's adjacency
    g = directed_path(3)
    one = Digraph(1)
    assert validate_model(one, g, r, DirectedModel(r, {0: (2,)}, {}, {0: 2}, {0: 2}))
    assert not validate_model(one, g, r, DirectedModel(r, {0: (bad,)}, {}, {0: bad}, {0: bad}))
    arc = Digraph(2, [(0, 1)])
    ends = {0: 0, 1: 1}
    assert validate_model(arc, g, r, DirectedModel(r, {0: (0,), 1: (1,)}, {(0, 1): (0, 1)},
                                                   ends, ends))
    assert not validate_model(arc, g, r, DirectedModel(r, {0: (0,), 1: (1,)},
                                                       {(0, 1): (bad, 1)}, ends, ends))
    assert not validate_model(arc, g, r, DirectedModel(r, {0: (0, bad), 1: (1,)},
                                                       {(0, 1): (bad, 1)}, ends, ends))


def test_no_minor_when_pattern_larger():
    assert is_depth_r_minor(crown(3), directed_path(4), 2) is None


def test_path_contains_no_crown():
    g = directed_path(8)
    for r in range(4):
        assert not contains_crown(g, 3, r)


def test_apex_crown_contains_its_crown():
    assert contains_crown(apex_crown(4), 4, 0)
    assert contains_crown(crown(3), 3, 0)


def test_minor_cap():
    with pytest.raises(SizeCapError):
        is_depth_r_minor(crown(2), random_digraph(13, 20, 0), 1)


def test_grad_edgeless():
    assert grad(Digraph(4), 0) == 0
    assert grad(Digraph(4), 2) == 0


def test_grad_triangle():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert grad(g, 0) == Fraction(1)
    assert grad(g, 1) == Fraction(1)


def test_grad_at_least_own_density():
    for seed in range(3):
        g = random_digraph(6, 10, seed)
        assert grad(g, 0) >= Fraction(g.m, g.n)


def test_grad_monotone_in_rank():
    g = random_digraph(6, 9, seed=5)
    assert grad(g, 0) <= grad(g, 1) <= grad(g, 2)


def test_grad_monotone_under_subgraphs():
    g = random_digraph(6, 10, seed=8)
    arcs = g.arcs()[:-3]
    h = Digraph(6, arcs)
    for r in (0, 1):
        assert grad(h, r) <= grad(g, r)


def test_grad_two_path_rank1():
    # the path itself stays the densest depth-1 minor: contractions only
    # trade two arcs for one
    g = directed_path(3)
    assert grad(g, 0) == Fraction(2, 3)
    assert grad(g, 1) == Fraction(2, 3)


def test_grad_lower_bound_cases():
    assert grad_lower_bound(Digraph(4)) == 0
    assert grad_lower_bound(bidirected_clique(4)) == 3
    for seed in range(3):
        g = random_digraph(7, 14, seed)
        assert grad_lower_bound(g) <= grad(g, 0)


def test_top_grad_edgeless_and_bounds():
    assert top_grad(Digraph(3), 1) == 0
    for seed in range(3):
        g = random_digraph(5, 8, seed)
        for r in (1, 2):
            assert top_grad(g, r) <= grad(g, r)


def test_top_grad_recovers_subdivided_triangle():
    # directed triangle a->b->c->a, each arc subdivided
    arcs = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    g = Digraph(6, arcs)
    assert top_grad(g, 1) >= 1
    assert grad(g, 1) >= 1


def _path_internals(g, a, b, limit, principals):
    """Bitmask of the internal vertices of every simple directed a->b path
    of 1..limit arcs whose internal vertices avoid ``principals``: all of
    them, not only the inclusion-minimal ones."""
    found = []
    stack = [(a, 0, 0)]  # (tip, internal vertices, arcs)
    while stack:
        x, mask, steps = stack.pop()
        for y in g.out_neighbors(x):
            if y == b:
                found.append(mask)
            elif y not in principals and not mask >> y & 1 and steps + 1 < limit:
                stack.append((y, mask | 1 << y, steps + 1))
    return found


def _max_packing(groups, i=0, used=0, memo=None):
    """Most groups of ``groups[i:]`` that each give one bitmask member,
    the chosen members pairwise disjoint and avoiding ``used``: an
    exhaustive table over (group index, used vertices), no pruning."""
    memo = {} if memo is None else memo
    if i == len(groups):
        return 0
    if (i, used) not in memo:
        memo[i, used] = max([_max_packing(groups, i + 1, used, memo)]
                            + [1 + _max_packing(groups, i + 1, used | s, memo)
                               for s in groups[i] if not used & s])
    return memo[i, used]


def _top_grad_reference(g, r):
    """Each ordered principal pair gets nothing or any one short path, the
    paths' internal vertices pairwise disjoint."""
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for principals in combinations(range(g.n), size):
            groups = [_path_internals(g, a, b, 2 * r, principals)
                      for a in principals for b in principals if a != b]
            best = max(best, Fraction(_max_packing(groups), size))
    return best


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 10**6), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_top_grad_matches_path_packing_reference(n, k, seed, r):
    g = random_digraph(n, min(k * n, n * (n - 1)), seed)
    assert top_grad(g, r) == _top_grad_reference(g, r)


def test_top_grad_picks_among_alternative_paths():
    # principals 0..4 take every arc among them but 0->1 and 2->3; 0->1
    # runs through 5 or 6 and 2->3 only through 5, so 0->1 must take 6:
    # 20 paths on 5 principals, a density no other principal set reaches
    g = Digraph(7, [(a, b) for a in range(5) for b in range(5)
                    if a != b and (a, b) not in ((0, 1), (2, 3))]
                + [(0, 5), (5, 1), (0, 6), (6, 1), (2, 5), (5, 3)])
    assert top_grad(g, 1) == _top_grad_reference(g, 1) == 4


def test_grad_cap():
    with pytest.raises(SizeCapError):
        grad(random_digraph(9, 20, 0), 1)
    with pytest.raises(SizeCapError):
        top_grad(random_digraph(9, 20, 0), 1)


def test_grad_caps_rise_with_max_n():
    # one vertex past the default cap of 8: a path's densest minor is itself
    g = directed_path(9)
    with pytest.raises(SizeCapError):
        grad(g, 1)
    assert grad(g, 1, max_n=9) == Fraction(8, 9)
    with pytest.raises(SizeCapError):
        top_grad(g, 1)
    assert top_grad(g, 1, max_n=9) == Fraction(8, 9)
