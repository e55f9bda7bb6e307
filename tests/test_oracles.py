"""The brute-force oracles themselves, pinned on hand-checkable instances."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import (Digraph, DstInstance, LinearOrder, apex_crown, directed_path,
                           random_digraph)
from sparsedigraph.coloring import adm_exact, adm_of_order, wcol_exact
from sparsedigraph.domination import neighborhood_complexity, vc_dimension_distance_r
from sparsedigraph.errors import SizeCapError
from sparsedigraph.digraph import in_ball, out_ball
from sparsedigraph.oracles import (
    alpha_r_exact,
    dst_exact_enum,
    gamma_r_exact,
    redblue_exact_enum,
    scss_exact_enum,
    verify_dominating,
    verify_scattered,
    verify_strongly_connected,
)


def gamma_by_flat_enumeration(g, r, targets=None):
    """Size-ascending subset scan; the slowest possible ground truth."""
    tgt = set(range(g.n) if targets is None else targets)
    for size in range(g.n + 1):
        for d in combinations(range(g.n), size):
            covered = set()
            for v in d:
                covered |= out_ball(g, v, r)
            if tgt <= covered:
                return size
    raise AssertionError("unreachable")


def test_gamma_edgeless():
    g = Digraph(4)
    size, witness = gamma_r_exact(g, 1)
    assert size == 4 and witness == frozenset(range(4))


def test_gamma_bidirected_star():
    arcs = [(0, i) for i in range(1, 5)] + [(i, 0) for i in range(1, 5)]
    g = Digraph(5, arcs)
    size, witness = gamma_r_exact(g, 1)
    assert size == 1
    assert verify_dominating(g, witness, 1)


def test_gamma_matches_flat_enumeration():
    for seed in range(4):
        g = random_digraph(7, 14, seed)
        for r in (1, 2):
            size, witness = gamma_r_exact(g, r)
            assert size == gamma_by_flat_enumeration(g, r)
            assert verify_dominating(g, witness, r)


def test_gamma_setwise():
    g = directed_path(5)
    size, witness = gamma_r_exact(g, 1, targets=[4])
    assert size == 1 and witness <= {3, 4}


def test_gamma_apex_crown_family():
    # minimum distance-1 dominators: ceil(n/2) subdivision vertices + apex
    for n in range(4, 9):
        g = apex_crown(n)
        size, witness = gamma_r_exact(g, 1, max_n=100)
        assert size == n // 2 + (n % 2) + 1
        assert verify_dominating(g, witness, 1)


def test_alpha_edgeless():
    g = Digraph(4)
    size, witness = alpha_r_exact(g, 1)
    assert size == 4 and witness == frozenset(range(4))


def test_alpha_apex_crown_family():
    for n in range(4, 9):
        size, witness = alpha_r_exact(apex_crown(n), 1, max_n=100)
        assert size == 2
        assert verify_scattered(apex_crown(n), witness, 1)


def test_alpha_never_exceeds_gamma():
    for seed in range(5):
        g = random_digraph(8, 18, seed)
        for r in (1, 2):
            a, _ = alpha_r_exact(g, r)
            c, _ = gamma_r_exact(g, r)
            assert a <= c


def test_caps_raise():
    g = random_digraph(20, 40, seed=0)
    with pytest.raises(SizeCapError):
        gamma_r_exact(g, 1)
    with pytest.raises(SizeCapError):
        alpha_r_exact(g, 1)
    assert gamma_r_exact(g, 1, max_n=25)[0] >= 1


@pytest.mark.parametrize("call", [
    lambda g: wcol_exact(g, -1),
    lambda g: adm_of_order(g, LinearOrder([]), 0, -1),
    lambda g: adm_exact(g, -1),
    lambda g: gamma_r_exact(g, -1),
    lambda g: alpha_r_exact(g, -1),
    lambda g: vc_dimension_distance_r(g, -1),
    lambda g: neighborhood_complexity(g, [], -1),
    lambda g: verify_dominating(g, [], -1),
    lambda g: verify_scattered(g, [], -1),
], ids=["wcol_exact", "adm_of_order", "adm_exact", "gamma_r_exact", "alpha_r_exact",
        "vc_dimension_distance_r", "neighborhood_complexity", "verify_dominating",
        "verify_scattered"])
def test_negative_radius_is_rejected_on_the_empty_graph(call):
    # the empty graph needs no search, so the check must come first
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        call(Digraph(0))


@pytest.mark.parametrize("targets, bad", [([0, 99], 99), ([-2, 1, 5], -2), ([0, 99, 100], 99)])
def test_gamma_names_an_out_of_range_target(targets, bad):
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        gamma_r_exact(directed_path(3), 1, targets)


def test_validators_trivial_cases():
    g = directed_path(4)
    assert verify_dominating(g, range(4), 2)
    assert verify_scattered(g, [2], 5)
    assert verify_strongly_connected(g, [])
    assert verify_strongly_connected(g, [1])
    assert not verify_strongly_connected(g, [0, 1])
    two_cycle = Digraph(3, [(0, 1), (1, 0)])
    assert verify_strongly_connected(two_cycle, [0, 1])


@pytest.mark.parametrize("verify", [verify_dominating, verify_scattered])
@pytest.mark.parametrize("bad", [-1, 3])
def test_validators_name_an_out_of_range_vertex(verify, bad):
    # indexing the adjacency tuple would read the last vertex's arcs for -1,
    # and raise IndexError for n
    g = directed_path(3)
    for vertices in ([bad], [0, 1, 2, bad]):
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            verify(g, vertices, 1)


@pytest.mark.parametrize("red", [[0], [0, 2]])
def test_redblue_exact_rejects_a_negative_radius(red):
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        redblue_exact_enum(directed_path(3), red, [0], -1)


def dominated_ball_by_ball(g, dominators, r, targets):
    """The per-dominator loop ``verify_dominating`` used to run."""
    tgt = set(targets)
    for v in set(dominators):
        tgt -= out_ball(g, v, r)
    return not tgt


@given(st.integers(1, 30), st.integers(0, 10_000), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_verify_dominating_matches_ball_by_ball(n, seed, r, data):
    g = random_digraph(n, min(n * (n - 1), n + seed % n), seed)
    dominators = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    targets = data.draw(st.none() | st.lists(st.integers(-1, n), max_size=8))
    expected = dominated_ball_by_ball(g, dominators, r, range(n) if targets is None else targets)
    assert verify_dominating(g, dominators, r, targets) == expected


def pairwise_scattered(g, vertices, r):
    """The pairwise-intersection check ``verify_scattered`` used to run."""
    vs = sorted(set(vertices))
    balls = [in_ball(g, v, r) for v in vs]
    return not any(balls[i] & balls[j]
                   for i in range(len(vs)) for j in range(i + 1, len(vs)))


@given(st.integers(2, 30), st.integers(0, 10_000), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_verify_scattered_matches_pairwise(n, seed, r, data):
    g = random_digraph(n, min(n * (n - 1), n + seed % n), seed)
    vertices = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    assert verify_scattered(g, vertices, r) == pairwise_scattered(g, vertices, r)


def test_dst_enum_k0_and_infeasible():
    g = directed_path(3)
    inst = DstInstance(g, 0, frozenset({1, 2}), 0)
    assert dst_exact_enum(inst) == frozenset()
    # terminal 2 has no in-arcs at all
    g2 = Digraph(3, [(0, 1)])
    assert dst_exact_enum(DstInstance(g2, 0, frozenset({2}), 2)) is None


def test_dst_enum_needs_connector():
    g = Digraph(3, [(0, 1), (1, 2)])
    inst = DstInstance(g, 0, frozenset({2}), 1)
    assert dst_exact_enum(inst) == frozenset({1})


def test_scss_enum_star():
    # bidirected star, center 0, terminals are the leaves
    arcs = [(0, i) for i in range(1, 4)] + [(i, 0) for i in range(1, 4)]
    g = Digraph(4, arcs)
    assert scss_exact_enum(g, [1, 2, 3], 1) == frozenset({0})


def test_scss_enum_cap_rises_with_max_n():
    # one vertex past the default cap of 12; one terminal needs no connector
    g = directed_path(13)
    with pytest.raises(SizeCapError):
        scss_exact_enum(g, [0], 1)
    assert scss_exact_enum(g, [0], 1, max_n=13) == frozenset()


def test_redblue_enum():
    g = directed_path(4)
    # at r = 2 blue vertex 1 covers {1, 2, 3} on its own
    assert redblue_exact_enum(g, red=[1, 2, 3], blue=[0, 1], r=2) == frozenset({1})
    # at r = 1 covering both 0 and 2 takes both blues
    assert redblue_exact_enum(g, red=[0, 2], blue=[0, 1], r=1) == frozenset({0, 1})
    assert redblue_exact_enum(g, red=[], blue=[0], r=1) == frozenset()
    assert redblue_exact_enum(g, red=[0], blue=[3], r=1) is None


def test_redblue_enum_counts_its_subsets_before_it_searches(monkeypatch):
    from sparsedigraph import oracles

    g = directed_path(6)
    # up to 2 of 6 blues: 1 + 6 + 15 = 22 subsets
    monkeypatch.setattr(oracles, "MAX_REDBLUE_SUBSETS", 22)
    assert redblue_exact_enum(g, range(6), range(6), 1, max_k=2) is None
    monkeypatch.setattr(oracles, "MAX_REDBLUE_SUBSETS", 21)
    monkeypatch.setattr(oracles, "_cover_masks", None)
    with pytest.raises(SizeCapError, match="22 blue subsets of up to 2 vertices exceed cap 21"):
        redblue_exact_enum(g, range(6), range(6), 1, max_k=2)
    # no red needs no subset
    assert redblue_exact_enum(g, [], range(6), 1, max_k=2) == frozenset()
