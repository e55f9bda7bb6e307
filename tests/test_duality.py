"""Duality machinery: projections, closures, independence trees, cores,
and the kernel pipeline, validated against enumeration oracles."""
import dataclasses
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, apex_crown, bidirected_clique, directed_path, random_digraph
from sparsedigraph import coloring, duality
from sparsedigraph.coloring import compute_wcol_order, wreach_all
from sparsedigraph.digraph import in_ball, induced_subgraph, out_ball, remove_vertices
from sparsedigraph.duality import (
    CoreResult,
    closure,
    dominator_or_scattered,
    domination_core,
    independence_tree,
    kernelize,
    max_left_chain,
    projection,
    reduce_core,
)
from sparsedigraph.errors import InternalInvariantError
from sparsedigraph.minors import grad_lower_bound
from sparsedigraph.oracles import (
    gamma_r_exact,
    verify_dominating,
    verify_scattered,
)


def bidirected_star(leaves):
    arcs = [(0, i) for i in range(1, leaves + 1)]
    arcs += [(i, 0) for i in range(1, leaves + 1)]
    return Digraph(leaves + 1, arcs)


def force_thresholds(monkeypatch, small, q):
    """Replace both certified thresholds: a target set of at most ``small``
    vertices is a core, and every scattered-set threshold is ``q``."""
    monkeypatch.setattr(duality, "default_core_threshold", lambda g, r, k: small)
    monkeypatch.setattr(duality, "complexity_threshold", lambda r, k, c: lambda x: q)


def all_minimum_dominators(g, r, targets):
    size, _ = gamma_r_exact(g, r, targets, max_n=20)
    balls = [out_ball(g, v, r) for v in range(g.n)]
    tgt = frozenset(targets)
    return [
        frozenset(d)
        for d in combinations(range(g.n), size)
        if tgt <= frozenset().union(*[balls[v] for v in d])
    ] or ([frozenset()] if not tgt else [])


# ---------------------------------------------------------------------------
# projections


def test_projection_empty_anchor_set():
    g = directed_path(3)
    assert projection(g, 1, [], 2) == frozenset()


def test_projection_path_middle():
    g = directed_path(3)
    assert projection(g, 1, [0, 2], 1) == {0, 2}


def test_projection_blocks_anchor_internals():
    # paths may not route through other anchors
    g = directed_path(4)
    assert projection(g, 0, [1, 3], 3) == {1}


def test_projection_source_must_be_outside():
    with pytest.raises(ValueError):
        projection(directed_path(3), 1, [1], 1)


def projection_oracle(g, u, anchors, r):
    anchors = frozenset(anchors)
    hits = set()

    def dfs(v, path, forward):
        if len(path) - 1 >= 1 and path[-1] in anchors:
            hits.add(path[-1])
            return
        if len(path) - 1 == r:
            return
        adj = g.out_neighbors(v) if forward else g.in_neighbors(v)
        for w in adj:
            if w not in path:
                dfs(w, path + [w], forward)

    dfs(u, [u], True)
    dfs(u, [u], False)
    return frozenset(hits)


def test_projection_matches_path_oracle():
    for seed in range(5):
        g = random_digraph(10, 25, seed)
        rng = random.Random(seed)
        anchors = frozenset(rng.sample(range(10), 4))
        for u in range(10):
            if u in anchors:
                continue
            for r in (1, 2, 3):
                assert projection(g, u, anchors, r) == projection_oracle(g, u, anchors, r)


# ---------------------------------------------------------------------------
# closures


def test_closure_edgeless():
    res = closure(Digraph(5), [0, 1], 2)
    assert res.vertices == frozenset()


def test_closure_star_removes_hub():
    q = 6
    g = Digraph(q + 1, [(i, 0) for i in range(1, q + 1)])  # leaves point at 0
    res = closure(g, list(range(1, q + 1)), 2, xi=2)
    assert res.vertices == frozenset({0})
    assert res.xi == 2


def test_closure_radius_one_doubles_xi():
    # with radius 1 the size budget is zero, so the bound must grow instead
    q = 5
    g = Digraph(q + 1, [(i, 0) for i in range(1, q + 1)])
    res = closure(g, list(range(1, q + 1)), 1, xi=1)
    assert res.vertices == frozenset()
    assert res.xi >= q


@pytest.mark.parametrize("xi", [0, -1])
def test_closure_rejects_a_bound_below_one(xi):
    # a bound below 1 gives a size budget of at most 0 that doubling never
    # grows, so the construction would restart forever
    g = directed_path(4)
    with pytest.raises(ValueError, match=f"^projection bound xi must be at least 1, got {xi}$"):
        closure(g, [0], 2, xi=xi)
    with pytest.raises(ValueError, match="^vertex 4 out of range$"):
        closure(g, [4], 2, xi=xi)  # the anchors are checked first, then the radius
    with pytest.raises(ValueError, match="^radius must be at least 1$"):
        closure(g, [0], 0, xi=xi)


def test_closure_properties_on_random():
    for seed in range(6):
        g = random_digraph(14, 35, seed)
        rng = random.Random(seed)
        anchors = frozenset(rng.sample(range(14), 5))
        for r in (1, 2):
            res = closure(g, anchors, r)
            assert not (res.vertices & anchors)
            assert len(res.vertices) <= max(0, (r - 1) * res.xi * len(anchors))
            from sparsedigraph.digraph import remove_vertices

            stripped = remove_vertices(g, res.vertices)
            for u in range(g.n):
                if u in anchors or u in res.vertices:
                    continue
                assert len(projection(stripped, u, anchors, r)) <= res.xi


def reference_projection(g, u, anchor_set, r):
    """``projection`` as it was before deletion by a blocked set."""
    found = set()
    for adj in (g.out_neighbors, g.in_neighbors):
        seen = {u}
        frontier = [u]
        for _ in range(r):
            nxt = []
            for x in frontier:
                for y in adj(x):
                    if y in anchor_set:
                        found.add(y)
                    elif y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return frozenset(found)


def reference_paths_vertices(g, u, anchors, r, removed):
    """``_projection_paths_vertices`` as it was, run on the stripped graph."""
    on_path = set()
    blocked = anchors | removed
    for step_out, step_in in ((g.out_neighbors, g.in_neighbors),
                              (g.in_neighbors, g.out_neighbors)):
        d_from = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                if d_from[x] >= r - 1:
                    continue
                for y in step_out(x):
                    if y not in d_from and y not in blocked:
                        d_from[y] = d_from[x] + 1
                        nxt.append(y)
            frontier = nxt
        d_to = {}
        frontier = []
        for a in sorted(anchors):
            for y in step_in(a):
                if y not in blocked and y not in d_to:
                    d_to[y] = 1
                    frontier.append(y)
        while frontier:
            nxt = []
            for x in frontier:
                if d_to[x] >= r - 1:
                    continue
                for y in step_in(x):
                    if y not in blocked and y not in d_to:
                        d_to[y] = d_to[x] + 1
                        nxt.append(y)
            frontier = nxt
        for w, a in d_from.items():
            if w != u and a + d_to.get(w, r + 1) <= r:
                on_path.add(w)
    return on_path


def reference_closure(g, anchors, r, xi):
    """``closure`` as it was: one ``remove_vertices`` graph per projection."""
    anchor_set = frozenset(anchors)
    outside = [v for v in range(g.n) if v not in anchor_set]
    while True:
        budget = (r - 1) * xi * len(anchor_set)
        chosen = set()
        ok = True
        while True:
            large = [u for u in outside if u not in chosen and len(
                reference_projection(remove_vertices(g, chosen), u, anchor_set, r)) > xi]
            if not large:
                break
            if len(chosen) >= budget:
                ok = False
                break
            stripped = remove_vertices(g, chosen)
            score = {}
            for u in large:
                for w in reference_paths_vertices(
                        stripped, u, anchor_set, r, frozenset(chosen)) | {u}:
                    if w not in anchor_set and w not in chosen:
                        score[w] = score.get(w, 0) + 1
            chosen.add(max(sorted(score), key=lambda w: score[w]))
        if ok:
            return frozenset(chosen), xi
        xi = min(2 * xi, g.n)


def test_closure_matches_rebuild_reference():
    picked = 0
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(5, 30)
        g = random_digraph(n, min(n * (n - 1), rng.randint(n, 3 * n)), seed)
        anchors = rng.sample(range(n), max(1, n // 5))
        for r in (1, 2, 3):
            for xi in (1, 2, None):
                res = closure(g, anchors, r, xi=xi)
                start = xi or max(1, math.ceil(2 * grad_lower_bound(g)))
                assert (res.vertices, res.xi) == reference_closure(g, anchors, r, start)
                picked += bool(res.vertices)
    assert picked >= 10  # the greedy picks are exercised, not only empty closures


# ---------------------------------------------------------------------------
# independence trees


def test_scattered_sequence_goes_left():
    g = Digraph(6)  # edgeless: everything pairwise scattered
    tree = independence_tree(g, [0, 1, 2, 3], 2)
    # all-left path
    node = tree.nodes[0]
    depth = 1
    while node.left is not None:
        assert node.right is None
        node = tree.nodes[node.left]
        depth += 1
    assert depth == 4
    assert max_left_chain(tree) == [0, 1, 2, 3]


def test_shared_dominator_goes_right():
    g = bidirected_star(4)
    tree = independence_tree(g, [1, 2, 3, 4], 1)  # center covers all pairs
    node = tree.nodes[0]
    depth = 1
    while node.right is not None:
        assert node.left is None
        node = tree.nodes[node.right]
        depth += 1
    assert depth == 4
    assert len(max_left_chain(tree)) == 1


def simulate_tree(g, seq, r):
    """Quadratic re-simulation: position strings keyed by vertex."""
    balls = {v: in_ball(g, v, r) for v in seq}
    positions = {}
    for v in seq:
        if not positions:
            positions[v] = ""
            continue
        key = ""
        while True:
            holder = next(u for u, pos in positions.items() if pos == key)
            key += "R" if balls[holder] & balls[v] else "L"
            if key not in positions.values():
                positions[v] = key
                break
    return positions


def tree_positions(tree):
    out = {}

    def walk(i, key):
        node = tree.nodes[i]
        out[node.vertex] = key
        if node.left is not None:
            walk(node.left, key + "L")
        if node.right is not None:
            walk(node.right, key + "R")

    if tree.nodes:
        walk(0, "")
    return out


def test_tree_matches_resimulation():
    for seed in range(6):
        g = random_digraph(12, 30, seed)
        rng = random.Random(seed)
        seq = rng.sample(range(12), 9)
        for r in (1, 2):
            tree = independence_tree(g, seq, r)
            assert tree_positions(tree) == simulate_tree(g, seq, r)


def walk_from_root_tree(g, seq, r):
    """The insertion walk replayed node by node from the root, with one
    in-ball intersection per node: (vertex, left, right) per node."""
    balls = {}
    nodes = []
    for v in seq:
        if v not in balls:
            balls[v] = in_ball(g, v, r)
        if not nodes:
            nodes.append([v, None, None])
            continue
        at = 0
        while True:
            node = nodes[at]
            side = 2 if not balls[v].isdisjoint(balls[node[0]]) else 1
            if node[side] is None:
                nodes.append([v, None, None])
                node[side] = len(nodes) - 1
                break
            at = node[side]
    return [tuple(node) for node in nodes]


@st.composite
def tree_instances(draw):
    family = draw(st.sampled_from(["random", "path", "crown"]))
    if family == "random":
        n = draw(st.integers(1, 30))
        m = draw(st.integers(0, min(3 * n, n * (n - 1))))
        g = random_digraph(n, m, draw(st.integers(0, 10 ** 6)))
    elif family == "path":
        g = directed_path(draw(st.integers(1, 40)))
    else:
        g = apex_crown(draw(st.integers(2, 12)))
    # repeated vertices are allowed and become separate nodes
    seq = draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    if draw(st.booleans()):
        seq = sorted(seq)
    return g, seq, draw(st.integers(0, 3))


@given(tree_instances())
@example((directed_path(300), list(range(300)), 1))
@example((directed_path(300), list(range(300)), 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tree_matches_walk_from_root(case):
    g, seq, r = case
    tree = independence_tree(g, seq, r)
    assert [(x.vertex, x.left, x.right) for x in tree.nodes] == walk_from_root_tree(g, seq, r)
    # each insert appends one node, so the nodes list the inserted sequence
    assert [x.vertex for x in tree.nodes] == list(seq)


def test_tree_runs_one_search_per_insertion(monkeypatch):
    g = random_digraph(40, 120, 3)
    seq = [*range(0, 40, 3), *range(40), 5]
    calls = []
    real = duality._bfs
    monkeypatch.setattr(duality, "_bfs", lambda *a, **kw: calls.append(a[1:]) or real(*a, **kw))
    tree = independence_tree(g, seq, 2)
    assert calls == [((v,), 2) for v in seq]
    assert [x.vertex for x in tree.nodes] == seq
    # the guarantee check reads the tree's lists: no search of its own
    monkeypatch.setattr(duality, "_bfs_each", None)
    calls.clear()
    res = dominator_or_scattered(g, range(40), 2, 40)
    assert calls == [((v,), 2) for v in res.anchors]


def test_tree_rejects_bad_vertex_and_radius():
    g = directed_path(3)
    with pytest.raises(ValueError, match="out of range"):
        independence_tree(g, [0, 3], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        independence_tree(g, [0], -1)


@pytest.mark.parametrize("bad", [-1, 3])
def test_projection_and_closure_range_check_their_vertices(bad):
    g = directed_path(3)
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        projection(g, bad, [0], 2)
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        closure(g, [0, bad], 2)


@pytest.mark.parametrize("anchors, bad", [([-1], -1), ([3], 3), ([0, 5, 3], 3), ([4, -3, 0], -3)])
def test_projection_names_its_smallest_bad_anchor(anchors, bad):
    # on the path 0 -> 1 -> 2, projection(g, 0, [5], 2) once returned the
    # empty set and projection(g, 2, [0, -3], 2) returned {0}
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        projection(directed_path(3), 1, anchors, 2)


def test_projection_checks_its_radius():
    # on the path 0 -> 1 -> 2, projection(g, 1, [0], -3) once returned the empty set
    g = directed_path(3)
    for r in (-1, -3):
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            projection(g, 1, [0], r)
    assert projection(g, 1, [0], 0) == frozenset()


def chain_oracle(tree):
    """Longest (#left edges + 1) over all root-leaf paths, brute force."""
    if not tree.nodes:
        return 0
    best = 0
    stack = [(0, 0)]
    while stack:
        i, lefts = stack.pop()
        node = tree.nodes[i]
        if node.left is None and node.right is None:
            best = max(best, lefts + 1)
        if node.left is not None:
            stack.append((node.left, lefts + 1))
        if node.right is not None:
            stack.append((node.right, lefts))
    return best


def test_max_left_chain_matches_oracle():
    for seed in range(8):
        g = random_digraph(11, 22, seed)
        rng = random.Random(seed + 99)
        seq = rng.sample(range(11), rng.randint(3, 11))
        tree = independence_tree(g, seq, 1)
        chain = max_left_chain(tree)
        assert len(chain) == chain_oracle(tree)
        assert verify_scattered(g, chain, 1)
        # chain respects insertion order
        order = {v: i for i, v in enumerate(seq)}
        assert [order[v] for v in chain] == sorted(order[v] for v in chain)


def test_tree_size_law_fields():
    g = random_digraph(10, 20, 3)
    tree = independence_tree(g, list(range(10)), 1)
    h, t = tree.height(), tree.longest_right_chain() + 1
    assert tree.node_count() <= h ** (t + 1)


# ---------------------------------------------------------------------------
# dominator or scattered


def test_dos_empty_targets():
    res = dominator_or_scattered(random_digraph(5, 8, 0), [], 1, 2)
    assert res.kind == "dominating"
    assert res.dominating == frozenset()


def test_dos_apex_crown():
    g = apex_crown(6)
    res = dominator_or_scattered(g, range(g.n), 1, 1)
    # gamma_1 = 4 > 1, so a correct scattered branch must exist or the
    # dominating branch must be large; either way it validates
    if res.kind == "scattered":
        assert len(res.scattered) == 2
        assert verify_scattered(g, res.scattered, 1)
    else:
        assert verify_dominating(g, res.dominating, 1)


def test_dos_consistent_with_exact_duality():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(5, 14)
        g = random_digraph(n, rng.randint(n, 3 * n), seed + 200)
        r = rng.choice([1, 2])
        k = rng.randint(0, 3)
        targets = frozenset(rng.sample(range(n), rng.randint(1, n)))
        res = dominator_or_scattered(g, targets, r, k)
        if res.kind == "scattered":
            assert len(res.scattered) == k + 1
            assert set(res.scattered) <= targets
            assert verify_scattered(g, res.scattered, r)
            # a scattered witness refutes k-domination
            assert gamma_r_exact(g, r, targets)[0] > k
        else:
            assert verify_dominating(g, res.dominating, r, targets)


def test_dos_greedy_anchor_bound():
    g = random_digraph(12, 30, 5)
    res = dominator_or_scattered(g, range(12), 2, 2)
    anchors = frozenset(res.anchors)
    for u in range(g.n):
        assert len(out_ball(g, u, 2) & anchors) <= res.guarantee


@pytest.mark.parametrize("slack", [-1, 0], ids=["below", "at"])
def test_dos_guarantee_check_against_the_true_count(monkeypatch, slack):
    g, r = random_digraph(12, 30, 5), 2
    anchors = frozenset(dominator_or_scattered(g, range(12), r, 2).anchors)
    most = max(len(out_ball(g, u, r) & anchors) for u in range(g.n))
    assert most > 1  # so the count, not a single anchor, decides
    real = duality.compute_wcol_order
    monkeypatch.setattr(duality, "compute_wcol_order", lambda h, rr: dataclasses.replace(
        real(h, rr), guarantee=most + slack))
    if slack < 0:
        with pytest.raises(InternalInvariantError, match=(
                "^a vertex r-dominates more anchors than the order guarantee$")):
            dominator_or_scattered(g, range(12), r, 2)
    else:
        assert frozenset(dominator_or_scattered(g, range(12), r, 2).anchors) == anchors


def min_scan_anchors(g, targets, r):
    """Reference: the anchor loop that takes a min() per anchor."""
    res = compute_wcol_order(g, 2 * r)
    sets = wreach_all(g, res.order, 2 * r)
    undominated = set(targets)
    anchors = []
    while undominated:
        x = min(undominated, key=res.order.position)
        anchors.append(x)
        for y in sorted(sets[x]):
            undominated -= out_ball(g, y, r)
    return tuple(anchors)


def test_dos_anchors_match_min_scan():
    cases = [(directed_path(60), range(60), 1), (directed_path(60), range(0, 60, 7), 2)]
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(5, 40)
        g = random_digraph(n, rng.randint(n, 3 * n), seed + 500)
        cases.append((g, rng.sample(range(n), rng.randint(1, n)), rng.choice([1, 2])))
    for g, targets, r in cases:
        res = dominator_or_scattered(g, targets, r, g.n)
        assert res.anchors == min_scan_anchors(g, targets, r)


def tree_reference(tree):
    """(height, longest right chain) by an explicit-stack walk."""
    height = right = 0
    stack = [(0, 1, 1)]
    while stack:
        i, depth, rights = stack.pop()
        height, right = max(height, depth), max(right, rights)
        node = tree.nodes[i]
        if node.left is not None:
            stack.append((node.left, depth + 1, 1))
        if node.right is not None:
            stack.append((node.right, depth + 1, rights + 1))
    return height, right


def test_tree_walks_match_reference():
    for seed in range(8):
        g = random_digraph(14, 30, seed)
        rng = random.Random(seed)
        tree = independence_tree(g, rng.sample(range(14), 12), rng.choice([1, 2]))
        assert (tree.height(), tree.longest_right_chain()) == tree_reference(tree)


def test_dos_long_path_needs_no_recursion():
    # on a directed path the greedy picks every vertex as an anchor and the
    # tree's left spine is about n/2 deep, far past the recursion limit
    n = 3000
    g = directed_path(n)
    res = dominator_or_scattered(g, range(n), 1, 1499)
    tree = res.tree
    assert res.kind == "scattered"
    assert len(res.scattered) == 1500  # in-balls {v-1, v}: every other vertex
    assert verify_scattered(g, res.scattered, 1)
    assert tree.node_count() == n
    assert (tree.height(), tree.longest_right_chain()) == tree_reference(tree) == (1501, 2)
    assert len(max_left_chain(tree)) == chain_oracle(tree) == 1500
    assert tree.node_count() <= tree.height() ** (tree.longest_right_chain() + 2)
    # 1500 vertices are pairwise scattered, so no 2000 vertices can be
    # refuted: the greedy dominator comes back instead
    res = dominator_or_scattered(g, range(n), 1, 2000)
    assert res.kind == "dominating"
    assert verify_dominating(g, res.dominating, 1)


def test_dos_path_6000_scattered():
    n = 6000
    g = directed_path(n)
    res = dominator_or_scattered(g, range(n), 1, 2999)
    tree = res.tree
    assert res.kind == "scattered"
    assert len(res.scattered) == 3000
    assert verify_scattered(g, res.scattered, 1)
    assert tree.node_count() == n
    assert (tree.height(), tree.longest_right_chain()) == (3001, 2)


def test_subtree_table_kept_until_the_tree_grows():
    g = random_digraph(40, 120, 3)
    tree = independence_tree(g, range(40), 1)
    table = tree._subtree_table()
    tree.height(), tree.longest_right_chain(), max_left_chain(tree)
    assert tree._subtree_table() is table
    tree.insert(0)
    assert tree._subtree_table() is not table
    assert tree._subtree_table() == independence_tree(g, [*range(40), 0], 1)._subtree_table()


def test_wcol_order_computed_once_per_graph(monkeypatch):
    g = random_digraph(30, 90, 4)
    first = compute_wcol_order(g, 2)
    assert compute_wcol_order(g, 2) is first
    twin = Digraph(g.n, g.arcs())
    assert twin == g and twin is not g
    again = compute_wcol_order(twin, 2)
    assert again is not first
    assert again == first
    assert compute_wcol_order(g, 3) != first  # keyed by radius too

    calls = []
    real = coloring.tfa_augment
    monkeypatch.setattr(coloring, "tfa_augment", lambda h, r: calls.append(r) or real(h, r))
    h = random_digraph(40, 120, 9)
    kernelize(h, 1, 3)  # threshold order at 2r, then reduce_core's call reuses it
    assert calls == [2]


# ---------------------------------------------------------------------------
# core reduction


def test_reduce_core_small_on_defaults():
    g = random_digraph(8, 16, 0)
    out = reduce_core(g, range(8), 1, 2)
    assert out.kind == "small"


def test_reduce_core_refutes_scattered_instances():
    g = Digraph(5)  # 5 isolated vertices, budget 3: hopeless
    out = reduce_core(g, range(5), 1, 3)
    assert out.kind == "no-instance"
    assert len(out.scattered_witness) == 4
    assert verify_scattered(g, out.scattered_witness, 1)


def test_reduce_core_removable_on_star(monkeypatch):
    g = bidirected_star(8)
    force_thresholds(monkeypatch, 0, 2)
    out = reduce_core(g, range(g.n), 1, 1)
    assert out.kind == "removable"
    z = out.removable
    # the core property survives: every minimum dominator of the rest
    # still dominates everything
    rest = frozenset(range(g.n)) - {z}
    for dom in all_minimum_dominators(g, 1, rest):
        assert verify_dominating(g, dom, 1, range(g.n))


def test_reduce_core_removable_on_randoms(monkeypatch):
    # hub-and-leaves over a bidirected core: pairwise conflicts keep the
    # top level from refuting, while stripping the hull scatters the
    # leaves, which is exactly what the removable path needs
    removable_seen = 0
    for seed in range(15):
        rng = random.Random(seed)
        core_n = rng.randint(2, 4)
        leaves = rng.randint(6, 9)
        n = core_n + leaves
        arcs = list(bidirected_clique(core_n).arcs())
        arcs += [(0, core_n + i) for i in range(leaves)]
        g = Digraph(n, arcs)
        k = rng.randint(1, 2)
        force_thresholds(monkeypatch, 0, k + 1)
        try:
            out = reduce_core(g, range(n), 1, k)
        except InternalInvariantError:
            continue  # forced thresholds void the pigeonhole guarantee
        if out.kind != "removable":
            continue
        removable_seen += 1
        rest = frozenset(range(n)) - {out.removable}
        for dom in all_minimum_dominators(g, 1, rest):
            assert verify_dominating(g, dom, 1, range(n))
    assert removable_seen >= 10


def test_domination_core_terminates():
    g = Digraph(6, [(0, i) for i in range(1, 6)])  # out-star
    res = domination_core(g, 1, 1)
    assert res.kind == "core"
    assert res.core == frozenset(range(6))
    for dom in all_minimum_dominators(g, 1, res.core):
        assert verify_dominating(g, dom, 1, range(6))


def test_domination_core_apex_crown():
    g = apex_crown(6)
    res = domination_core(g, 1, 3)
    assert res.kind == "core"
    size_core = gamma_r_exact(g, 1, res.core, max_n=30)[0]
    size_full = gamma_r_exact(g, 1, max_n=30)[0]
    assert size_core == size_full


def test_domination_core_shrinks_star(monkeypatch):
    g = bidirected_star(9)
    force_thresholds(monkeypatch, 7, 2)
    res = domination_core(g, 1, 1)
    assert res.kind == "core"
    assert len(res.core) <= 7
    assert len(res.removed) == g.n - len(res.core)
    for dom in all_minimum_dominators(g, 1, res.core):
        assert verify_dominating(g, dom, 1, range(g.n))


def test_core_threshold_computed_once_per_graph(monkeypatch):
    # only the scattered-set threshold is replaced, so the core threshold
    # is 2 * (k + 2) = 6 and the star loses one leaf per round
    calls = []
    real = duality.grad_lower_bound
    monkeypatch.setattr(duality, "grad_lower_bound", lambda h: calls.append(h) or real(h))
    monkeypatch.setattr(duality, "complexity_threshold", lambda r, k, c: lambda x: 2)
    g = bidirected_star(9)
    res = domination_core(g, 1, 1)
    assert (res.kind, res.removed, res.iterations) == ("core", (4, 3, 2, 1), 5)
    assert calls == []  # r = 1: the density bound's factor r - 1 is 0
    assert g._derived[("core_threshold", 1, 1)] == 6


def _raise(*args):
    raise AssertionError("no density peel at r = 1")


@pytest.mark.parametrize("g", [random_digraph(40, 120, 11), directed_path(12), apex_crown(12)],
                         ids=["random", "path", "apex-crown"])
def test_radius_one_kernel_peels_no_density_bound(monkeypatch, g):
    want = kernelize(Digraph(g.n, g.arcs()), 1, 2)
    monkeypatch.setattr(duality, "grad_lower_bound", _raise)
    got = kernelize(g, 1, 2)
    assert (got.threshold, got.core, got.representatives, got.removed, got.infeasible) == (
        want.threshold, want.core, want.representatives, want.removed, want.infeasible)
    assert sorted(got.graph.arcs()) == sorted(want.graph.arcs())


def test_radius_two_core_threshold_peels_once_per_graph(monkeypatch):
    g = random_digraph(30, 90, 4)
    calls = []
    real = duality.grad_lower_bound
    monkeypatch.setattr(duality, "grad_lower_bound", lambda h: calls.append(h) or real(h))
    for _ in range(2):
        for k in (1, 2):
            duality.default_core_threshold(g, 2, k)
    assert calls.count(g) == 2  # one peel per (graph, r, k), none on repeats


# ---------------------------------------------------------------------------
# kernels


def test_kernel_reports_the_core_threshold():
    # the certified value, recomputed here from its definition
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_digraph(n, rng.randint(0, 2 * n), seed + 500)
        r, k = rng.randint(1, 3), rng.randint(0, 4)
        c = compute_wcol_order(g, 2 * r).guarantee
        xi = max(1, math.ceil(2 * grad_lower_bound(g)))
        expect = (k + 1) * ((r + 2) * c * ((r - 1) * xi + 1) * c * k) ** c * (k + 2)
        res = kernelize(g, r, k)
        assert res.threshold == duality.default_core_threshold(g, r, k) == expect
        assert g._derived[("core_threshold", r, k)] == expect
    assert kernelize(Digraph(0), 2, 1).threshold == 0


def test_kernel_no_instance_propagation():
    g = Digraph(4)  # 4 scattered vertices, budget 2
    res = kernelize(g, 1, 2)
    assert res.infeasible
    assert gamma_r_exact(res.graph, 1)[0] > res.budget


def test_kernel_decision_preserved_random():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(5, 14)
        g = random_digraph(n, rng.randint(n, 3 * n), seed + 900)
        r = rng.choice([1, 2])
        k = rng.randint(0, 3)
        res = kernelize(g, r, k)
        original = gamma_r_exact(g, r)[0] <= k
        if res.infeasible:
            kernel_decision = False
        else:
            kernel_decision = (
                gamma_r_exact(res.graph, r, max_n=60)[0] <= res.budget
            )
        assert kernel_decision == original, f"seed {seed}"


def _set_built_kernel_graph(g, r, core, reps):
    """The kernel graph as ``kernelize`` built it before it filled the
    out-lists directly: an arc set checked by the constructor."""
    keep = sorted(core | set(reps))
    sub, old_of = induced_subgraph(g, keep)
    new_of = {old: new for new, old in enumerate(old_of)}
    core_new = {new_of[v] for v in core}
    arcs = set(sub.arcs())
    w, w_prime = sub.n, sub.n + 1
    next_free = sub.n + 2

    def add_path(frm, to):
        nonlocal next_free
        prev = frm
        for _ in range(r - 1):
            arcs.add((prev, next_free))
            prev = next_free
            next_free += 1
        arcs.add((prev, to))

    add_path(w, w_prime)
    for v in range(sub.n):
        if v not in core_new:
            add_path(w, v)
    return Digraph(next_free, arcs)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("with_reps", [False, True], ids=["full-core", "representatives"])
def test_kernel_graph_matches_set_built_reference(monkeypatch, r, with_reps):
    # the core is chosen here, so that some vertices fall outside it and
    # collapse to representatives; only the graph's assembly is compared
    rng = random.Random(r)
    for seed in range(10):
        n = rng.randint(1, 16)
        g = random_digraph(n, rng.randint(0, min(3 * n, n * (n - 1))), seed + 300)
        core = frozenset(rng.sample(range(n), rng.randint(1, n - 1))) if with_reps and n > 1 \
            else frozenset(range(n))
        monkeypatch.setattr(duality, "domination_core", lambda *args, **kwargs: CoreResult(
            kind="core", core=core, removed=(), iterations=1))
        monkeypatch.setattr(duality, "default_core_threshold", lambda g, r, k: 0)
        res = kernelize(g, r, 2)
        assert bool(res.representatives) == (core != frozenset(range(n)))
        ref = _set_built_kernel_graph(g, r, core, res.representatives)
        assert res.graph == ref and res.graph._in == ref._in and res.graph.m == ref.m


def test_kernel_collapses_twins(monkeypatch):
    # the out-leaves dropped from the core see no core vertex, so they
    # collapse to one representative
    n = 8
    g = Digraph(n, [(0, i) for i in range(1, n)])
    force_thresholds(monkeypatch, 5, 2)
    res = kernelize(g, 1, 1)
    assert not res.infeasible
    assert (res.removed, res.representatives) == ((4, 3, 2), (2,))
    assert res.graph.n < n + 2 + (n - 1)
    k_dec = gamma_r_exact(res.graph, 1, max_n=60)[0] <= res.budget
    assert k_dec == (gamma_r_exact(g, 1)[0] <= 1)
