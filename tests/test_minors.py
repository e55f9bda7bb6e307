"""Depth-r minor search and density computations against brute checks."""
from fractions import Fraction

import pytest

from sparsedigraph import Digraph, apex_crown, bidirected_clique, crown, directed_path, random_digraph
from sparsedigraph.errors import SizeCapError
from sparsedigraph.minors import (
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
