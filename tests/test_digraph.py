"""Core digraph representation, balls, SCCs, contraction, degeneracy."""
import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import (
    Digraph,
    LinearOrder,
    compute_wcol_order,
    contract,
    crown,
    degeneracy,
    bidirected_clique,
    directed_path,
    format_digraph,
    grad_lower_bound,
    in_ball,
    out_ball,
    parse_digraph,
    random_digraph,
    scc,
)
from sparsedigraph.digraph import (_adjacency_masks, _bfs, _bfs_each, _mask_reach, _peel_lists,
                                   _smallest_last, in_distances, induced_subgraph, out_distances,
                                   remove_vertices, shortest_path)
from sparsedigraph.oracles import verify_strongly_connected


# ---------------------------------------------------------------------------
# independent oracles


def reach_by_matrix_powers(g, v, r):
    """Reachability within r steps via boolean adjacency powers."""
    n = g.n
    adj = [[g.has_arc(i, j) for j in range(n)] for i in range(n)]
    reach = [i == v for i in range(n)]
    for _ in range(r):
        nxt = reach[:]
        for i in range(n):
            if reach[i]:
                for j in range(n):
                    if adj[i][j]:
                        nxt[j] = True
        reach = nxt
    return frozenset(i for i in range(n) if reach[i])


def has_directed_cycle(g):
    colors = [0] * g.n

    def visit(v):
        colors[v] = 1
        for w in g.out_neighbors(v):
            if colors[w] == 1:
                return True
            if colors[w] == 0 and visit(w):
                return True
        colors[v] = 2
        return False

    return any(colors[v] == 0 and visit(v) for v in range(g.n))


# ---------------------------------------------------------------------------
# construction


def test_rejects_self_loop_duplicate_and_range():
    with pytest.raises(ValueError):
        Digraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])


def test_antiparallel_pairs_are_two_arcs():
    g = Digraph(2, [(0, 1), (1, 0)])
    assert g.m == 2
    assert g.underlying_edges() == [(0, 1)]


def test_linear_order_roundtrip():
    order = LinearOrder([2, 0, 1])
    assert order.position(2) == 0
    assert list(order) == [2, 0, 1]
    with pytest.raises(ValueError):
        LinearOrder([0, 0, 1])


# ---------------------------------------------------------------------------
# balls


def test_out_ball_singleton():
    g = Digraph(1)
    assert out_ball(g, 0, 5) == {0}


def test_out_ball_path():
    g = directed_path(3)
    assert out_ball(g, 0, 1) == {0, 1}
    assert out_ball(g, 0, 2) == {0, 1, 2}
    assert in_ball(g, 2, 2) == {0, 1, 2}


def test_in_ball_crown_principal():
    g = crown(3)
    # principal 0 is hit by the subdivision vertices of pairs (0,1), (0,2)
    assert in_ball(g, 0, 1) == {0, 3, 4}


def test_out_ball_matches_matrix_oracle():
    g = random_digraph(8, 18, seed=7)
    for v in range(g.n):
        assert out_ball(g, v, 3) == reach_by_matrix_powers(g, v, 3)


def test_in_ball_is_out_ball_of_reverse():
    g = random_digraph(8, 20, seed=11)
    rg = g.reverse()
    for v in range(g.n):
        for r in range(4):
            assert in_ball(g, v, r) == out_ball(rg, v, r)


@given(st.integers(0, 400), st.integers(2, 8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ball_monotone_and_dual(seed, n):
    m = min(2 * n, n * (n - 1))
    g = random_digraph(n, m, seed)
    for v in range(n):
        prev = frozenset([v])
        for r in range(4):
            ball = out_ball(g, v, r)
            assert prev <= ball
            prev = ball
    for u in range(n):
        for v in range(n):
            assert (u in out_ball(g, v, 2)) == (v in in_ball(g, u, 2))


def test_ball_argument_errors():
    g = directed_path(3)
    with pytest.raises(ValueError):
        out_ball(g, 5, 1)
    with pytest.raises(ValueError):
        out_ball(g, 0, -1)


# ---------------------------------------------------------------------------
# scc


def test_scc_dag_is_singletons():
    g = Digraph(4, [(0, 1), (1, 2), (0, 3)])
    dec = scc(g)
    assert all(len(c) == 1 for c in dec.components)
    assert dec.diameters == (0, 0, 0, 0)


def test_scc_cycle_diameter():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dec = scc(g)
    assert len(dec.components) == 1
    assert dec.diameters == (3,)


def test_scc_matches_mutual_reachability():
    g = random_digraph(10, 25, seed=3)
    dec = scc(g)
    for u in range(g.n):
        for v in range(g.n):
            mutually = v in out_ball(g, u, g.n) and u in out_ball(g, v, g.n)
            assert (dec.component_of[u] == dec.component_of[v]) == (
                mutually or u == v
            )


def test_scc_condensation_acyclic():
    g = random_digraph(10, 30, seed=5)
    dec = scc(g)
    condensed, _ = contract(g, dec.components)
    assert not has_directed_cycle(condensed)


# ---------------------------------------------------------------------------
# contraction


def test_contract_identity_partition():
    g = random_digraph(6, 10, seed=1)
    h, mapping = contract(g, [[v] for v in range(6)])
    assert h.n == g.n
    assert {(mapping[u], mapping[v]) for u, v in g.arcs()} == set(h.arcs())


def test_contract_two_cycle_in_path():
    # c -> a <-> b -> d  collapses to  c -> x -> d
    g = Digraph(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    h, mapping = contract(g, [[1, 2]])
    assert h.n == 3
    assert set(h.arcs()) == {(mapping[0], mapping[1]), (mapping[1], mapping[3])}


def test_contract_rejects_overlap():
    g = directed_path(4)
    with pytest.raises(ValueError):
        contract(g, [[0, 1], [1, 2]])


def test_contract_lifts_arcs():
    g = random_digraph(9, 20, seed=9)
    blocks = [[0, 1, 2], [3, 4]]
    h, mapping = contract(g, blocks)
    for a, b in h.arcs():
        assert any(
            mapping[u] == a and mapping[v] == b for u, v in g.arcs()
        )


# ---------------------------------------------------------------------------
# degeneracy


def naive_peel(g):
    """Reference peel: recompute degrees from scratch every round."""
    alive = set(range(g.n))
    worst = 0
    while alive:
        v = min(alive, key=lambda x: (sum(1 for u in g.underlying_neighbors(x) if u in alive), x))
        worst = max(worst, sum(1 for u in g.underlying_neighbors(v) if u in alive))
        alive.remove(v)
    return worst


def test_degeneracy_edgeless():
    d, order, orientation = degeneracy(Digraph(5))
    assert d == 0 and orientation == []
    assert len(order) == 5


def test_degeneracy_crown():
    for q in range(3, 7):
        d, _, orientation = degeneracy(crown(q))
        assert d == 2
        assert d == naive_peel(crown(q))
    # order-2 crown is just a path, degeneracy 1
    assert degeneracy(crown(2))[0] == 1


def test_degeneracy_bidirected_k4():
    d, _, _ = degeneracy(bidirected_clique(4))
    assert d == 3


def test_degeneracy_orientation_outdegree_bound():
    g = random_digraph(12, 30, seed=13)
    d, order, orientation = degeneracy(g)
    assert d == naive_peel(g)
    outdeg = [0] * g.n
    for u, v in orientation:
        outdeg[u] += 1
        assert order.position(v) < order.position(u)
    assert max(outdeg) <= d
    # every vertex has at most d underlying neighbors earlier in the order
    for v in range(g.n):
        earlier = sum(
            1 for u in g.underlying_neighbors(v) if order.position(u) < order.position(v)
        )
        assert earlier <= d


def reference_degeneracy(g):
    """Quadratic min-scan peel: the straightforward version of degeneracy."""
    n = g.n
    neigh = [set(g.underlying_neighbors(v)) for v in range(n)]
    deg = [len(s) for s in neigh]
    alive = set(range(n))
    peel = []
    d = 0
    for _ in range(n):
        v = min(alive, key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        peel.append(v)
        alive.remove(v)
        for u in neigh[v]:
            if u in alive:
                deg[u] -= 1
    order = LinearOrder(peel[::-1])
    orientation = []
    for u, v in g.underlying_edges():
        if order.position(u) > order.position(v):
            orientation.append((u, v))
        else:
            orientation.append((v, u))
    return d, order, sorted(orientation)


def reference_grad_lower_bound(g):
    """Quadratic min-scan densest-subgraph peel on out+in degree."""
    if g.n == 0:
        return Fraction(0)
    alive = set(range(g.n))
    deg = [len(g.out_neighbors(v)) + len(g.in_neighbors(v)) for v in range(g.n)]
    arcs = g.m
    best = Fraction(arcs, g.n)
    while len(alive) > 1:
        v = min(alive, key=lambda x: (deg[x], x))
        for u in g.out_neighbors(v):
            if u in alive:
                deg[u] -= 1
                arcs -= 1
        for u in g.in_neighbors(v):
            if u in alive:
                deg[u] -= 1
                arcs -= 1
        alive.remove(v)
        best = max(best, Fraction(arcs, len(alive)))
    return best


@st.composite
def digraphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Digraph(n)
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return Digraph(n, [(u, v) for u, v in arcs if u != v])


@given(digraphs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_peel_matches_min_scan_reference(g):
    d, order, orientation = degeneracy(g)
    ref_d, ref_order, ref_orientation = reference_degeneracy(g)
    assert (d, order.seq, orientation) == (ref_d, ref_order.seq, ref_orientation)
    assert _smallest_last([g.underlying_neighbors(v) for v in range(g.n)])[:2] == (d, order)
    assert grad_lower_bound(g) == reference_grad_lower_bound(g)


@given(digraphs(max_n=40))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_degeneracy_matches_networkx_core_number(g):
    nx = pytest.importorskip("networkx")
    und = nx.Graph()
    und.add_nodes_from(range(g.n))
    und.add_edges_from(g.underlying_edges())
    assert degeneracy(g)[0] == max(nx.core_number(und).values(), default=0)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: directed_path(20000), 1),
        (lambda: random_digraph(20000, 60000, seed=1), 4),
    ],
    ids=["path", "random"],
)
def test_peel_large_graphs(build, expected):
    """Regression for the quadratic peel: n = 20000 takes well under a second."""
    g = build()
    d, order, orientation = degeneracy(g)
    assert d == expected
    assert len(orientation) == len(g.underlying_edges())
    outdeg = [0] * g.n
    for u, v in orientation:
        assert order.position(v) < order.position(u)
        outdeg[u] += 1
    assert max(outdeg) <= d
    # every subgraph has at most 2d arcs per vertex (antiparallel pairs twice)
    assert Fraction(g.m, g.n) <= grad_lower_bound(g) <= 2 * d


def _heap_peel_reference(neighbors):
    """The peel as a lazy global heap with keys ``degree * n + vertex``,
    as it stood before the bucket queue, in ``_peel_lists``' return shape:
    the removal order, and each vertex's live neighbor entries at its
    removal (as many as its degree then)."""
    n = len(neighbors)
    deg = [len(a) for a in neighbors]
    alive = [True] * n
    removed, later = [], [None] * n
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while heap:
        d, v = divmod(heapq.heappop(heap), n)
        if not alive[v]:
            continue
        alive[v] = False
        removed.append(v)
        later[v] = [u for u in neighbors[v] if alive[u]]
        assert len(later[v]) == d
        for u in later[v]:
            deg[u] -= 1
            heapq.heappush(heap, deg[u] * n + u)
    return removed, later


def _heap_grad_lower_bound_reference(g):
    """``grad_lower_bound`` on the heap peel."""
    if g.n == 0:
        return Fraction(0)
    arcs = best_arcs = g.m
    alive = best_alive = g.n
    removed, later = _heap_peel_reference(
        [g.out_neighbors(v) + g.in_neighbors(v) for v in range(g.n)])
    for v in removed[:-1]:
        arcs -= len(later[v])
        alive -= 1
        if arcs * best_alive > best_arcs * alive:
            best_arcs, best_alive = arcs, alive
    return Fraction(best_arcs, best_alive)


@st.composite
def multigraph_lists(draw, max_n=30):
    """Symmetric neighbor lists with repeated edges: a random multigraph,
    optionally with a hub joined to many vertices (a star) and with
    isolated vertices left over, so degrees tie often."""
    n = draw(st.integers(0, max_n))
    nbrs = [[] for _ in range(n)]
    if n < 2:
        return nbrs
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if draw(st.booleans()):
        hub = draw(vertex)
        edges += [(hub, v) for v in draw(st.lists(vertex, max_size=2 * n))]
    for u, v in edges:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


@given(multigraph_lists(), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_bucket_peel_matches_heap_peel(nbrs, rnd):
    removed, later = _peel_lists(nbrs)
    assert isinstance(removed, list) and isinstance(later, list)
    assert (removed, later) == _heap_peel_reference(nbrs)
    # row order moves nothing but the order within each live list: rows
    # shuffled, and the simple graph's rows as sets, as the augmentation
    # hands them over
    shuffled = _peel_lists([rnd.sample(a, len(a)) for a in nbrs])
    assert shuffled[0] == removed
    assert list(map(sorted, shuffled[1])) == list(map(sorted, later))
    simple = [sorted(set(a)) for a in nbrs]
    removed, later = _peel_lists(simple)
    as_sets = _peel_lists([set(a) for a in simple])
    assert as_sets[0] == removed
    assert list(map(set, as_sets[1])) == list(map(set, later))


@pytest.mark.parametrize("nbrs", [
    [],
    [[]],
    [[], [], []],
    [[1, 2, 3, 4], [0], [0], [0], [0]],  # a star: leaves tie, the hub goes last
    [[1, 1, 1], [0, 0, 0, 2], [1]],  # a tripled edge counts three times
    [[1, 2], [0, 2], [0, 1], [4], [3], []],  # a triangle, an edge, an isolated vertex
], ids=["empty", "single", "isolated", "star", "repeats", "mixed"])
def test_bucket_peel_small_cases(nbrs):
    assert _peel_lists(nbrs) == _heap_peel_reference(nbrs)


def _two_pass_orient_reference(und):
    """The orientation towards earlier neighbors as it was built before
    the peel kept the live lists: smallest-last order from the peel, then
    a second pass keeping each vertex's neighbors earlier in the order,
    in list order."""
    removed, _ = _heap_peel_reference(und)
    pos = [0] * len(und)
    for i, v in enumerate(reversed(removed)):
        pos[v] = i
    return [[v for v in nbrs if pos[v] < p] for nbrs, p in zip(und, pos)]


@st.composite
def simple_lists(draw, max_n=30):
    """Symmetric neighbor lists of a simple graph, each list ascending."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return [[] for _ in range(n)]
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return [sorted(a) for a in nbrs]


@given(st.one_of(simple_lists(), simple_lists().map(lambda lists: [set(a) for a in lists]),
                 multigraph_lists()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_live_lists_match_two_pass_orientation(und):
    # ascending lists (the augmentation's layers), sets (its partner sets,
    # read in iteration order) and lists with repeats (minors' out+in lists)
    removed, later = _peel_lists(und)
    assert later == _two_pass_orient_reference(und)
    d, order, out = _smallest_last(und)
    assert out == later and order.seq == tuple(reversed(removed))
    assert d == max(map(len, later), default=0)
    if all(isinstance(a, list) and a == sorted(set(a)) for a in und):
        assert all(a == sorted(a) for a in later)  # ready for ``Digraph._fill``


@given(st.integers(1, 120), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_grad_lower_bound_matches_heap_peel(n, k, seed):
    # random digraphs have antiparallel pairs, which the out+in lists repeat
    g = random_digraph(n, min(k * n, n * (n - 1)), seed)
    assert grad_lower_bound(g) == _heap_grad_lower_bound_reference(g)


# ---------------------------------------------------------------------------
# the bounded-search primitive


@given(digraphs(max_n=16), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bfs_matches_networkx(g, data):
    """Distances from one or more sources, either direction, with a cap,
    a ``within`` set and a ``blocked`` set, against networkx on the graph
    restricted to within, minus blocked, plus the sources."""
    nx = pytest.importorskip("networkx")
    if g.n == 0:
        return
    vertex_sets = st.frozensets(st.integers(0, g.n - 1))
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3))
    cap = data.draw(st.none() | st.integers(0, 4))
    within = data.draw(st.none() | vertex_sets)
    blocked = data.draw(st.none() | vertex_sets)
    reverse = data.draw(st.booleans())
    dist = _bfs(g.in_neighbors if reverse else g.out_neighbors, sources, cap,
                within=within, blocked=blocked)

    keep = set(range(g.n) if within is None else within)
    keep -= blocked or set()
    keep |= set(sources)  # sources are always entered
    h = nx.DiGraph()
    h.add_nodes_from(keep)
    h.add_edges_from((v, u) if reverse else (u, v)
                     for u, v in g.arcs() if u in keep and v in keep)
    h.add_edges_from((-1, x) for x in sources)  # one super-source
    ref = nx.single_source_shortest_path_length(h, -1, cutoff=None if cap is None else cap + 1)
    del ref[-1]
    assert dist == {v: d - 1 for v, d in ref.items()}
    assert list(dist.values()) == sorted(dist.values())  # discovery order


@given(digraphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mask_reach_matches_bfs(g, data):
    """The bitmask reach of the exact searches against ``_bfs`` from the
    same start set, with ``steps`` as the cap and ``allowed`` as
    ``within``, along the out- and the in-masks."""
    if g.n == 0:
        return
    vertex_sets = st.frozensets(st.integers(0, g.n - 1))
    start = data.draw(vertex_sets)
    allowed = data.draw(vertex_sets)
    steps = data.draw(st.none() | st.integers(0, 3))
    reverse = data.draw(st.booleans())

    def mask(vertices):
        return sum(1 << v for v in vertices)

    reached = _mask_reach(_adjacency_masks(g)[reverse], mask(start), mask(allowed), steps)
    dist = _bfs(g.in_neighbors if reverse else g.out_neighbors, sorted(start), steps,
                within=allowed)
    assert reached == mask(dist)


def early_exit_shortest_path(g, u, v, within=None):
    """The stand-alone BFS ``shortest_path`` used before it ran on ``_bfs``:
    each vertex's parent is the first frontier vertex that reaches it, and
    the search stops when v is discovered."""
    if u == v:
        return [u]
    parent = {u: -1}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.out_neighbors(x):
                if y not in parent and (within is None or y in within):
                    parent[y] = x
                    if y == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(y)
        frontier = nxt
    return None


@given(digraphs(max_n=14), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_shortest_path_matches_early_exit_reference(g, data):
    within = data.draw(st.none() | st.frozensets(st.integers(0, max(g.n - 1, 0))))
    for u in range(g.n):
        for v in range(g.n):
            if within is not None and u not in within:
                with pytest.raises(ValueError, match="^start vertex not in the allowed set$"):
                    shortest_path(g, u, v, within)
            else:
                assert shortest_path(g, u, v, within) == early_exit_shortest_path(g, u, v, within)


@pytest.mark.parametrize("bad", [-1, 3])
def test_distances_and_shortest_path_range_check_their_vertices(bad):
    # on the path 0 -> 1 -> 2, in_distances(g, -1, 2) once returned vertex
    # 2's in-ball under the key -1, and shortest_path(g, 0, 3) returned None
    g = directed_path(3)
    calls = [lambda: out_distances(g, bad), lambda: out_distances(g, bad, 1, frozenset({0})),
             lambda: in_distances(g, bad, 2), lambda: shortest_path(g, bad, 2),
             lambda: shortest_path(g, 0, bad)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            call()


def test_searches_share_one_argument_contract():
    # on the path 0 -> 1 -> 2, in_distances(g, 2, -1) once returned {2: 0}, and
    # out_distances and shortest_path entered a start outside ``within``
    g = directed_path(3)
    for call in (lambda: out_distances(g, 0, -1), lambda: in_distances(g, 2, -1)):
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            call()
    outside = frozenset({1, 2})
    for call in (lambda: out_distances(g, 0, 2, outside), lambda: shortest_path(g, 0, 2, outside)):
        with pytest.raises(ValueError, match="^start vertex not in the allowed set$"):
            call()
    # the radius is checked first, then the start's range, then ``within``
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        in_ball(g, 5, -1)
    with pytest.raises(ValueError, match="^vertex 5 out of range$"):
        out_ball(g, 5, 1, frozenset({0}))


# ---------------------------------------------------------------------------
# networkx differential tests


def networkx_copy(nx, g):
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs())
    return h


@given(digraphs(max_n=20))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_scc_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = networkx_copy(nx, g)
    dec = scc(g)
    assert sorted(dec.components) == sorted(
        tuple(sorted(c)) for c in nx.strongly_connected_components(h))
    for comp, diam in zip(dec.components, dec.diameters):
        assert diam == max(nx.eccentricity(h.subgraph(comp)).values())


@given(digraphs(max_n=16), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_verify_strongly_connected_matches_networkx(g, data):
    nx = pytest.importorskip("networkx")
    if g.n == 0:
        return
    s = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=1))
    h = networkx_copy(nx, g)
    assert verify_strongly_connected(g, s) == nx.is_strongly_connected(h.subgraph(s))


# ---------------------------------------------------------------------------
# surgery helpers


def test_induced_subgraph_mapping():
    g = random_digraph(8, 16, seed=21)
    h, old_of = induced_subgraph(g, [1, 3, 4, 6])
    assert h.n == 4
    for a, b in h.arcs():
        assert g.has_arc(old_of[a], old_of[b])
    kept = set(old_of)
    expected = sum(1 for u, v in g.arcs() if u in kept and v in kept)
    assert h.m == expected


def test_induced_subgraph_keeping_every_vertex_is_the_input():
    g = random_digraph(8, 16, seed=21)
    assert induced_subgraph(g, [7, *range(8)]) == (g, list(range(8)))
    assert induced_subgraph(g, range(8))[0] is g
    with pytest.raises(ValueError):
        induced_subgraph(g, range(9))


def test_remove_vertices_keeps_indexing():
    g = random_digraph(8, 16, seed=22)
    h = remove_vertices(g, {2, 5})
    assert h.n == g.n
    assert all(2 not in (u, v) and 5 not in (u, v) for u, v in h.arcs())


def assert_same_graph(h, arcs):
    """``h`` agrees with the checked constructor on the same arcs in every
    way a caller can see."""
    ref = Digraph(h.n, arcs)
    assert h == ref and hash(h) == hash(ref)
    assert h._out == ref._out and h._in == ref._in
    assert h.m == ref.m and h.arcs() == ref.arcs()
    assert all(h.has_arc(u, v) == ref.has_arc(u, v)
               for u in range(h.n) for v in range(h.n))


@given(digraphs(max_n=14), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_derived_graphs_equal_checked_constructor(g, data):
    if g.n == 0:
        return
    vertex_sets = st.frozensets(st.integers(0, g.n - 1))
    labels = data.draw(st.lists(st.integers(-1, 3), min_size=g.n, max_size=g.n))
    blocks = [[v for v in range(g.n) if labels[v] == b] for b in range(4)]
    blocks = [b for b in blocks if b]  # label -1: no block
    dead = data.draw(vertex_sets)
    for gone in (frozenset(), dead):
        h, mapping = contract(g, blocks, gone)
        assert_same_graph(h, {(mapping[u], mapping[v]) for u, v in g.arcs()
                              if mapping[u] != mapping[v] and not {u, v} & gone})
    assert_same_graph(remove_vertices(g, dead),
                      [(u, v) for u, v in g.arcs() if not {u, v} & dead])
    keep = data.draw(vertex_sets)
    h, old_of = induced_subgraph(g, keep)
    new_of = {v: i for i, v in enumerate(old_of)}
    assert_same_graph(h, [(new_of[u], new_of[v]) for u, v in g.arcs()
                          if u in keep and v in keep])
    assert_same_graph(g.reverse(), [(v, u) for u, v in g.arcs()])


def _contract_reference(g, partition, dead=()):
    """``contract`` before its no-op path: it rebuilds the graph every time."""
    blocks = [sorted(set(b)) for b in partition]
    lead = list(range(g.n))
    seen: set[int] = set()
    for b in blocks:
        for v in b:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"partition blocks overlap at vertex {v}")
            seen.add(v)
            lead[v] = b[0]
    leaders = [v for v in range(g.n) if lead[v] == v]
    new_id = {x: i for i, x in enumerate(leaders)}
    mapping = [new_id[lead[v]] for v in range(g.n)]
    dead = frozenset(dead)
    proj: list[set[int]] = [set() for _ in leaders]
    for u, heads in enumerate(g._out):
        if u not in dead:
            proj[mapping[u]].update(mapping[v] for v in heads if v not in dead)
    out = [sorted(s - {a}) for a, s in enumerate(proj)]
    return Digraph.__new__(Digraph)._fill(len(out), out), mapping


@given(digraphs(max_n=14), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_contract_matches_rebuild_reference(g, isolated, data):
    g = Digraph(g.n + isolated, g.arcs())  # isolated vertices: dead without arcs
    vertices = st.sampled_from(range(g.n)) if g.n else st.nothing()
    kind = data.draw(st.sampled_from(["empty", "singletons", "mixed"]))
    if kind == "empty":
        blocks = []
    elif kind == "singletons":
        blocks = [[v] for v in data.draw(st.lists(vertices, unique=True))]
    else:
        labels = data.draw(st.lists(st.integers(-1, 3), min_size=g.n, max_size=g.n))
        blocks = [[v for v in range(g.n) if labels[v] == b] for b in range(4)]
        blocks = [b for b in blocks if b]
    bare = [v for v in range(g.n) if not g.out_neighbors(v) and not g.in_neighbors(v)]
    if data.draw(st.booleans()) and bare:
        dead = data.draw(st.frozensets(st.sampled_from(bare)))
    else:
        dead = data.draw(st.frozensets(vertices, min_size=min(g.n, 1)))
    h, mapping = contract(g, blocks, dead)
    ref, ref_mapping = _contract_reference(g, blocks, dead)
    assert (h, mapping) == (ref, ref_mapping)
    assert h._in == ref._in and h.m == ref.m
    unchanged = (all(len(b) < 2 for b in blocks)
                 and not any(g.out_neighbors(v) or g.in_neighbors(v) for v in dead))
    assert (h is g) == unchanged


@st.composite
def contraction_cases(draw):
    """A digraph, blocks and dead vertices on which the projection merges:
    an outside vertex with arcs into two members of block A, arcs between
    blocks A and B both ways, a block C whose members are all dead, a
    singleton block, an empty block, and dead members inside A and B."""
    n = draw(st.integers(8, 16))
    perm = draw(st.permutations(range(n)))
    outside, single = perm[:2]
    rest = perm[2:]
    cut_a = draw(st.integers(2, len(rest) - 4))
    cut_b = draw(st.integers(cut_a + 2, len(rest) - 2))
    a, b, c = rest[:cut_a], rest[cut_a:cut_b], rest[cut_b:]
    planted = {(outside, a[0]), (outside, a[1]), (a[0], b[0]), (a[1], b[1]),
               (b[0], a[0]), (c[0], a[0]), (b[1], c[1]), (single, c[0])}
    drawn = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = Digraph(n, {(u, v) for u, v in planted | drawn if u != v})
    dead = set(c) | draw(st.sets(st.sampled_from(a + b), max_size=2))
    dead |= draw(st.sets(st.integers(0, n - 1), max_size=2))
    return g, [a, [], b, [single], c], frozenset(dead)


@given(contraction_cases(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_contract_remap_matches_set_projection(case, with_dead):
    g, blocks, dead = case
    dead = dead if with_dead else frozenset()
    h, mapping = contract(g, blocks, dead)
    ref, ref_mapping = _contract_reference(g, blocks, dead)
    assert (h.n, h._out, h._in, mapping) == (ref.n, ref._out, ref._in, ref_mapping)
    assert h.m == ref.m
    # only singletons, empty blocks and arc-free dead vertices: g itself
    bare = frozenset(v for v in range(g.n) if not g._out[v] and not g._in[v])
    same, identity = contract(g, [[]] + [[v] for v in range(g.n)], bare)
    assert same is g and identity == list(range(g.n))


@pytest.mark.parametrize("dead", [[99], [-1], [0, 3]])
def test_contract_range_checks_dead_vertices(dead):
    g = directed_path(3)
    bad = next(v for v in dead if not 0 <= v < g.n)
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        remove_vertices(g, dead)
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        contract(g, [[0, 1]], dead)


@given(digraphs(max_n=14))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reverse_shares_the_tuples_swapped(g):
    rg = g.reverse()
    assert rg._out is g._in and rg._in is g._out
    rebuilt = Digraph.__new__(Digraph)._fill(g.n, g._in)
    assert (rg.n, rg.m, rg._out, rg._in) == (rebuilt.n, rebuilt.m, rebuilt._out, rebuilt._in)
    assert rg.reverse() == g and rg.reverse()._out is g._out
    assert [rg.underlying_neighbors(v) for v in range(g.n)] == \
        [g.underlying_neighbors(v) for v in range(g.n)]


def test_reverse_does_not_share_the_memo():
    g = random_digraph(40, 120, seed=3)
    order = compute_wcol_order(g, 2)
    rg = g.reverse()
    assert rg._derived == {} and compute_wcol_order(g, 2) is order
    assert compute_wcol_order(rg, 2) is not order
    assert compute_wcol_order(rg, 2) == compute_wcol_order(Digraph(g.n, rg.arcs()), 2)


# ---------------------------------------------------------------------------
# text format


def test_format_parse_roundtrip():
    g = random_digraph(7, 12, seed=2)
    text = format_digraph(g, comments=["hello"])
    assert parse_digraph(text) == g


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_digraph("")
    with pytest.raises(ValueError):
        parse_digraph("graph 3 0\n")
    with pytest.raises(ValueError):
        parse_digraph("digraph 2 1\n0 0\n")
    with pytest.raises(ValueError):
        parse_digraph("digraph 2 2\n0 1\n0 1\n")
    with pytest.raises(ValueError):
        parse_digraph("digraph 2 2\n0 1\n")


# ---------------------------------------------------------------------------
# per-source searches


@given(digraphs(), st.sampled_from([None, 0, 1, 2, 3]), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bfs_each_matches_bfs_per_source(g, cap, data):
    # item lists, not dicts, so the discovery order is compared too
    sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)) if g.n else []
    for adj, step in ((g._out, g.out_neighbors), (g._in, g.in_neighbors)):
        tables = [list(t.items()) for t in _bfs_each(adj, sources, cap)]
        assert tables == [list(_bfs(step, (s,), cap).items()) for s in sources]


@given(digraphs(), st.sampled_from([None, 0, 1, 2, 3]), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bfs_each_ranked_matches_a_growing_blocked_set(g, cap, data):
    seq = data.draw(st.permutations(range(g.n)))
    rank = [0] * g.n
    for i, v in enumerate(seq):
        rank[v] = i
    for adj, step in ((g._out, g.out_neighbors), (g._in, g.in_neighbors)):
        blocked = set()
        expected = []
        for s in seq:
            blocked.add(s)
            expected.append(list(_bfs(step, (s,), cap, blocked=blocked).items()))
        assert [list(t.items()) for t in _bfs_each(adj, seq, cap, rank)] == expected
