"""Generators: counts, arc structure, determinism."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import (
    Digraph,
    InstanceRecipe,
    apex_crown,
    bidirected_clique,
    crown,
    directed_path,
    random_digraph,
)
from sparsedigraph.errors import SizeCapError


def crown_subdivision_vertex(q: int, i: int, j: int) -> int:
    """Index of the subdivision vertex of ``crown(q)`` for the principal pair (i, j)."""
    if not 0 <= i < j < q:
        raise ValueError("need 0 <= i < j < q")
    # pairs before row i, plus offset inside row i
    return q + i * q - i * (i + 1) // 2 + (j - i - 1)


def longest_directed_path_order(g):
    """Number of vertices on a longest directed path, by exhaustive DFS."""
    best = 0

    def extend(v, visited):
        nonlocal best
        best = max(best, len(visited))
        for w in g.out_neighbors(v):
            if w not in visited:
                extend(w, visited | {w})

    for v in range(g.n):
        extend(v, {v})
    return best


def test_path_counts():
    assert directed_path(1).m == 0
    assert set(directed_path(3).arcs()) == {(0, 1), (1, 2)}
    with pytest.raises(ValueError):
        directed_path(0)


def test_path_is_a_path():
    assert longest_directed_path_order(directed_path(8)) == 8


def test_crown_counts():
    g2 = crown(2)
    assert (g2.n, g2.m) == (3, 2)
    g3 = crown(3)
    assert (g3.n, g3.m) == (6, 6)
    with pytest.raises(ValueError):
        crown(1)


def test_crown_degrees():
    g = crown(4)
    for v in range(4):
        assert len(g.in_neighbors(v)) == 3
        assert len(g.out_neighbors(v)) == 0
    for w in range(4, g.n):
        assert len(g.out_neighbors(w)) == 2
        assert len(g.in_neighbors(w)) == 0


def test_crown_has_no_two_arc_path():
    g = crown(5)
    assert longest_directed_path_order(g) == 2


def test_crown_subdivision_indexing():
    q = 5
    g = crown(q)
    for i in range(q):
        for j in range(i + 1, q):
            w = crown_subdivision_vertex(q, i, j)
            assert set(g.out_neighbors(w)) == {i, j}


def test_apex_crown_counts():
    g = apex_crown(4)
    assert (g.n, g.m) == (11, 18)
    apex = g.n - 1
    assert set(g.out_neighbors(apex)) == set(range(4, 10))
    with pytest.raises(ValueError):
        apex_crown(1)


def test_random_digraph_edge_cases():
    assert random_digraph(5, 0, seed=1).m == 0
    g = random_digraph(3, 6, seed=9)
    assert set(g.arcs()) == {(u, v) for u in range(3) for v in range(3) if u != v}
    with pytest.raises(ValueError):
        random_digraph(3, 7, seed=0)
    with pytest.raises(ValueError, match="arc count m=-1 is negative"):
        random_digraph(3, -1, seed=0)


def test_random_digraph_deterministic():
    a = random_digraph(10, 20, seed=123)
    b = random_digraph(10, 20, seed=123)
    assert a == b
    assert a != random_digraph(10, 20, seed=124)


@given(st.integers(1, 12), st.integers(0, 2**32), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_digraph_samples_the_lexicographic_pairs(n, seed, data):
    # drawing indices from a range picks the pairs that sampling the
    # materialized list would pick
    m = data.draw(st.integers(0, n * (n - 1)))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    assert random_digraph(n, m, seed) == Digraph(n, random.Random(seed).sample(pairs, m))


def test_recipe_roundtrip():
    assert InstanceRecipe("path", 4).build() == directed_path(4)
    assert InstanceRecipe("bidirected-clique", 3).build() == bidirected_clique(3)
    assert InstanceRecipe("crown", 4).build() == crown(4)
    assert InstanceRecipe("apex-crown", 4).build() == apex_crown(4)
    r = InstanceRecipe("random", 6, arcs=9, seed=4)
    assert r.build() == random_digraph(6, 9, 4)
    assert "seed=4" in r.describe()
    with pytest.raises(ValueError):
        InstanceRecipe("random", 6)
    with pytest.raises(ValueError):
        InstanceRecipe("moebius", 6)


@pytest.mark.parametrize("family, size", [
    ("path", 10**6), ("bidirected-clique", 10**6), ("random", 10**6),
    ("crown", 1413), ("apex-crown", 1413),  # 998991 and 998992 vertices
])
def test_recipe_past_the_parse_cap_is_refused(family, size):
    # MAX_PARSE_N = 10^6 vertices or just below is accepted, one more size
    # is refused, and neither recipe builds anything
    extra = {"arcs": 0, "seed": 1} if family == "random" else {}
    InstanceRecipe(family, size, **extra)
    with pytest.raises(SizeCapError, match="vertices exceed cap 1000000"):
        InstanceRecipe(family, size + 1, **extra)
