"""Weak coloring machinery against exhaustive path-enumeration oracles."""
import math
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, LinearOrder, apex_crown, directed_path, random_digraph
from sparsedigraph import coloring
from sparsedigraph.acceptance import check_augmentation
from sparsedigraph.coloring import (
    Augmentation,
    _inclusion_minimal,
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
from sparsedigraph.digraph import _bfs, _peel_lists, degeneracy, out_distances, remove_vertices
from sparsedigraph.errors import SizeCapError


# ---------------------------------------------------------------------------
# oracles


def directed_paths_from(g, start, max_len):
    """All simple directed paths starting at ``start`` with <= max_len arcs."""
    paths = [[start]]

    def dfs(path):
        if len(path) - 1 == max_len:
            return
        for w in g.out_neighbors(path[-1]):
            if w not in path:
                nxt = path + [w]
                paths.append(nxt)
                dfs(nxt)

    dfs([start])
    return paths


def wreach_oracle(g, order, v, r):
    """Enumerate every directed path touching v and apply the definition."""
    result = {v}
    for path in directed_paths_from(g, v, r):
        u = path[-1]
        if min(path, key=order.position) == u:
            result.add(u)
    for path in directed_paths_from(g.reverse(), v, r):
        u = path[-1]
        if min(path, key=order.position) == u:
            result.add(u)
    return frozenset(result)


def all_bounded_paths(g, r):
    """All simple directed paths with 1..r arcs, as vertex tuples."""
    out = []
    for v in range(g.n):
        for p in directed_paths_from(g, v, r):
            if len(p) > 1:
                out.append(tuple(p))
    return out


def longest_directed_path_arcs(g):
    best = 0

    def extend(v, visited):
        nonlocal best
        best = max(best, len(visited) - 1)
        for w in g.out_neighbors(v):
            if w not in visited:
                extend(w, visited | {w})

    for v in range(g.n):
        extend(v, {v})
    return best


# ---------------------------------------------------------------------------
# wreach


def test_wreach_small_path():
    g = directed_path(3)
    order = LinearOrder([1, 0, 2])  # 1 < 0 < 2
    assert wreach_all(g, order, 2)[2] == {1, 2}
    assert wreach_all(g, order, 1)[0] == {0, 1}


def test_wreach_radius_zero():
    g = random_digraph(6, 10, seed=0)
    order = LinearOrder.identity(6)
    for v in range(6):
        assert wreach_all(g, order, 0)[v] == {v}


def test_wreach_monotone_in_radius():
    g = random_digraph(7, 15, seed=1)
    order = LinearOrder([3, 1, 6, 0, 2, 5, 4])
    for v in range(7):
        prev = frozenset()
        for r in range(5):
            cur = wreach_all(g, order, r)[v]
            assert prev <= cur
            prev = cur


@given(st.integers(0, 200), st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_wreach_matches_oracle(seed, perm):
    g = random_digraph(6, 12, seed)
    order = LinearOrder(perm)
    sets = wreach_all(g, order, 3)
    for v in range(6):
        assert sets[v] == wreach_oracle(g, order, v, 3)


def wreach_by_blocked_searches(g, order, r):
    """``wreach_all`` as one ``_bfs`` per vertex and direction, each
    through a blocked set that grows along the order."""
    result = [{v} for v in range(g.n)]
    blocked = set()
    for u in order:
        blocked.add(u)
        for adj in (g.out_neighbors, g.in_neighbors):
            for w in _bfs(adj, (u,), r, blocked=blocked):
                result[w].add(u)
    return tuple(frozenset(s) for s in result)


@given(st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_wreach_matches_blocked_search_loop(n, seed, r, data):
    g = random_digraph(n, seed % (n * (n - 1) + 1), seed)
    order = LinearOrder(data.draw(st.permutations(range(n))))
    assert wreach_all(g, order, r) == wreach_by_blocked_searches(g, order, r)


def test_separator_property():
    # the smallest vertex of any short path is weakly reachable from both ends
    for seed in (3, 4):
        g = random_digraph(7, 14, seed)
        order = LinearOrder([(v * 3 + seed) % 7 for v in range(7)] if seed == 3 else range(7))
        r = 3
        sets = wreach_all(g, order, r)
        for path in all_bounded_paths(g, r):
            u, v = path[0], path[-1]
            assert sets[u] & sets[v] & set(path)


# ---------------------------------------------------------------------------
# wcol


def test_wcol_edgeless():
    g = Digraph(4)
    assert wcol_of_order(g, LinearOrder.identity(4), 3) == 1


def test_wcol_exact_small_cases():
    g = Digraph(2, [(0, 1)])
    assert wcol_exact(g, 1)[0] == 2
    p3 = directed_path(3)
    assert wcol_infty_exact(p3)[0] == 2


def test_wcol_exact_path_formula():
    for n in (1, 3, 7):
        val, witness = wcol_infty_exact(directed_path(n))
        assert val == math.ceil(math.log2(n + 1))
        assert wcol_of_order(directed_path(n), witness, n) == val


def test_wcol_exact_is_a_minimum():
    g = random_digraph(6, 12, seed=7)
    val, witness = wcol_exact(g, 2)
    assert wcol_of_order(g, witness, 2) == val
    for perm in list(permutations(range(6)))[:120]:
        assert wcol_of_order(g, LinearOrder(perm), 2) >= val


def test_wcol_subgraph_monotone():
    g = random_digraph(6, 11, seed=9)
    h = Digraph(6, g.arcs()[:-4])
    for r in (1, 2):
        assert wcol_exact(h, r)[0] <= wcol_exact(g, r)[0]


def test_wcol_infty_limits_directed_paths():
    for seed in range(3):
        g = random_digraph(6, 9, seed)
        c = wcol_infty_exact(g)[0]
        assert longest_directed_path_arcs(g) <= 2 ** c - 2


def test_wcol_exact_cap():
    with pytest.raises(SizeCapError):
        wcol_exact(random_digraph(10, 20, 0), 2)


def test_exact_caps_rise_with_max_n():
    # one vertex past the default cap of 9; max_n= lets the search run
    g = directed_path(10)
    with pytest.raises(SizeCapError):
        wcol_infty_exact(g)
    assert wcol_infty_exact(g, max_n=10)[0] == 4  # ceil(log2(11))
    with pytest.raises(SizeCapError):
        adm_exact(g, 1)
    value, order = adm_exact(g, 1, max_n=10)
    assert value == max(adm_of_order(g, order, v, 1) for v in range(10)) == 1


# ---------------------------------------------------------------------------
# admissibility


@pytest.mark.parametrize("bad", [-1, 3])
def test_adm_of_order_range_checks_its_vertex(bad):
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        adm_of_order(directed_path(3), LinearOrder.identity(3), bad, 1)


def test_adm_edgeless():
    g = Digraph(5)
    order = LinearOrder.identity(5)
    assert all(adm_of_order(g, order, v, 3) == 0 for v in range(5))


def test_adm_in_star():
    q = 4
    g = Digraph(q + 1, [(i, q) for i in range(q)])
    order = LinearOrder(list(range(q + 1)))  # center q is last
    assert adm_of_order(g, order, q, 1) == q


def test_adm_truncation_is_harmless():
    # a path through a smaller vertex still yields one usable path
    g = directed_path(4)
    order = LinearOrder([1, 3, 0, 2])
    # at v=2 with smaller {1, 3}: the out-path 2->3 and in-path 1->2
    assert adm_of_order(g, order, 2, 2) == 2


def quadratic_inclusion_minimal(found):
    """The O(k^2) filter: each member against every member kept so far."""
    minimal = []
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        if not any(t <= s for t in minimal):
            minimal.append(s)
    return minimal


@given(st.sets(st.frozensets(st.integers(0, 9), max_size=4), max_size=12)
       | st.sets(st.frozensets(st.integers(0, 30), max_size=2), max_size=20)
       .map(lambda found: found | {frozenset()}))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_inclusion_minimal_matches_the_quadratic_filter(found):
    assert _inclusion_minimal(found) == quadratic_inclusion_minimal(found)


def _adm_paths(adj, v, r, smaller):
    """Bitmask of the non-v vertices of every simple path of 1..r steps
    along ``adj`` from v whose last vertex is in ``smaller`` and whose
    internal vertices are not: all of them, not only the minimal ones."""
    found = []
    stack = [(v, 0, 0)]  # (tip, vertices after v, steps)
    while stack:
        x, mask, steps = stack.pop()
        for y in adj(x):
            if y == v or mask >> y & 1:
                continue
            if y in smaller:
                found.append(mask | 1 << y)
            elif steps + 1 < r:
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


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 10**6),
       st.randoms(use_true_random=False), st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_adm_of_order_matches_path_packing_reference(n, k, seed, rnd, r):
    # any family of admissibility paths, each path taken or not
    g = random_digraph(n, min(k * n, n * (n - 1)), seed)
    seq = list(range(n))
    rnd.shuffle(seq)
    order = LinearOrder(seq)
    for v in range(n):
        smaller = set(seq[:order.position(v)])
        paths = [p for adj in (g.out_neighbors, g.in_neighbors)
                 for p in _adm_paths(adj, v, r, smaller)]
        assert adm_of_order(g, order, v, r) == _max_packing([[p] for p in paths])


def test_wcol_bounded_by_admissibility():
    for seed in range(4):
        g = random_digraph(6, 10, seed)
        for r in (1, 2):
            w = wcol_exact(g, r)[0]
            a = adm_exact(g, r)[0]
            assert w <= 2 * max(a, 1) ** r


# ---------------------------------------------------------------------------
# augmentations


def test_tfa_edgeless():
    aug = tfa_augment(Digraph(4), 3)
    assert all(not layer for layer in aug.layers)


def test_tfa_two_path_transitive_arc():
    aug = tfa_augment(directed_path(3), 2)
    assert len(aug.layers[1]) == 1
    ((u, v),) = aug.layers[1]
    assert {u, v} == {0, 2}


def test_tfa_rejects_depth_zero():
    with pytest.raises(ValueError):
        tfa_augment(directed_path(3), 0)


def test_tfa_definition_checker():
    for seed in range(6):
        n = 8 + seed * 4
        g = random_digraph(n, 2 * n, seed)
        for r in (1, 2, 3):
            aug = tfa_augment(g, r)
            assert check_augmentation(g, aug) == []


def test_path_pattern_in_augmentation():
    # every short base path leaves one of the three certified patterns
    for seed in range(4):
        g = random_digraph(9, 18, seed)
        r = 3
        aug = tfa_augment(g, r)
        arcs = frozenset().union(*aug.layers)
        out = {v: {w for (x, w) in arcs if x == v} for v in range(g.n)}
        for path in all_bounded_paths(g, r):
            u, v = path[0], path[-1]
            ok = (
                (u, v) in arcs
                or (v, u) in arcs
                or (out[u] & out[v])
            )
            assert ok, f"path {path} leaves no pattern"


def test_order_from_augmentation_edgeless():
    res = order_from_augmentation(Digraph(3), tfa_augment(Digraph(3), 2))
    assert res.guarantee == 1


def _layer_union(n, hs):
    """The union's largest out-degree and its undirected neighbor sets,
    derived from the layer graphs ``hs``: how the order once read an
    augmentation built without partner sets."""
    heads = [{v for h in hs for v in h.out_neighbors(u)} for u in range(n)]
    return (max(map(len, heads), default=0),
            [s.union(*(h.in_neighbors(u) for h in hs)) for u, s in enumerate(heads)])


@given(st.integers(1, 12), st.lists(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                             max_size=25), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_order_from_augmentation_matches_union_digraph(n, raw_layers):
    # layers join each unordered pair at most once, as the closure's do;
    # references: the union's out-degree and partner sets derived from the
    # layer graphs, and the peel of a Digraph of the union, as the order
    # was once built
    joined = set()
    layers = []
    for raw in raw_layers:
        layer = set()
        for u, v in ((u % n, v % n) for u, v in raw):
            if u != v and frozenset((u, v)) not in joined:
                joined.add(frozenset((u, v)))
                layer.add((u, v))
        layers.append(frozenset(layer))
    graphs = tuple(Digraph(n, L) for L in layers)
    partners = [set() for _ in range(n)]
    for u, v in joined:
        partners[u].add(v)
        partners[v].add(u)
    d, union = _layer_union(n, graphs)
    assert union == partners
    c, order, _ = degeneracy(Digraph(n, frozenset().union(*layers)))
    aug = Augmentation(n=n, depth=len(layers), graphs=graphs, partners=tuple(partners))
    res = order_from_augmentation(Digraph(n), aug)
    assert (res.order, res.smaller_neighbors, res.max_outdegree) == (order, c, d)
    assert res.guarantee == (d + 1) * c + 1


# The pair-list augmentation the layer graphs replaced, kept as a
# reference: per-layer out/in sets, fresh pairs sorted into undirected
# neighbor lists and peeled directly, and the union peeled the same way.


def _ref_undirected_lists(n, pairs):
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(set(a)) for a in nbrs]


def _ref_degeneracy(und):
    peel, later = _peel_lists(und)
    d = max((len(later[v]) for v in peel), default=0)
    order = LinearOrder(peel[::-1])
    orientation = [(u, v) for u in range(len(und)) for v in und[u]
                   if order.position(v) < order.position(u)]
    return d, order, orientation


def _ref_orient_pairs(n, pairs):
    if not pairs:
        return frozenset()
    return frozenset(_ref_degeneracy(_ref_undirected_lists(n, pairs))[2])


def _ref_tfa_augment(g, r):
    n = g.n
    dist = [out_distances(g, v, cap=r) for v in range(n)]
    far = r + 1
    first = _ref_orient_pairs(n, g.underlying_edges())
    layers = [first]
    present = {u * n + v if u < v else v * n + u for u, v in first}
    outs = [[set() for _ in range(n)]]
    ins = [[set() for _ in range(n)]]
    for u, v in first:
        outs[0][u].add(v)
        ins[0][v].add(u)
    for t in range(2, r + 1):
        fresh = set()
        checked = set()
        for j1 in range(1, t):
            j2 = t - j1
            o1, o2, i1 = outs[j1 - 1], outs[j2 - 1], ins[j1 - 1]
            for w in range(n):
                for starts in (o1[w], i1[w]):
                    for u in starts:
                        for v in o2[w]:
                            if u == v:
                                continue
                            key = u * n + v if u < v else v * n + u
                            if key in checked:
                                continue
                            checked.add(key)
                            if key not in present and (
                                dist[u].get(v, far) <= t or dist[v].get(u, far) <= t
                            ):
                                fresh.add(key)
        layer = _ref_orient_pairs(n, [divmod(key, n) for key in fresh])
        layers.append(layer)
        present |= fresh
        outs.append([set() for _ in range(n)])
        ins.append([set() for _ in range(n)])
        for u, v in layer:
            outs[-1][u].add(v)
            ins[-1][v].add(u)
    return layers


def _ref_order(n, layers):
    arcs = set().union(*layers)
    outdeg = [0] * n
    for u, _ in arcs:
        outdeg[u] += 1
    c, order, _ = _ref_degeneracy(_ref_undirected_lists(n, arcs))
    return order, c, max(outdeg, default=0)


_GRAPHS = st.one_of(
    st.builds(lambda n, k, seed: random_digraph(n, min(k * n, n * (n - 1)), seed),
              st.integers(1, 40), st.integers(0, 4), st.integers(0, 10**6)),
    st.builds(directed_path, st.integers(1, 40)),
    st.builds(apex_crown, st.integers(2, 7)),
)


@given(_GRAPHS, st.integers(1, 3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_augmentation_matches_pair_list_reference(g, r):
    aug = tfa_augment(g, r)
    ref_layers = _ref_tfa_augment(g, r)
    assert len(aug.layers) == len(ref_layers) == r
    for t, (layer, ref) in enumerate(zip(aug.layers, ref_layers), start=1):
        assert isinstance(layer, frozenset)
        assert layer == ref, f"layer {t}"
    res = order_from_augmentation(g, aug)
    assert (res.order, res.smaller_neighbors, res.max_outdegree) == _ref_order(g.n, ref_layers)


@given(_GRAPHS, st.integers(1, 3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_augmentation_arc_views_match_layer_graphs(g, r):
    # the graphs end at the closure's last arc; the arc view runs on to
    # depth r with empty layers
    aug = tfa_augment(g, r)
    layers = aug.layers
    assert len(layers) == r and len(aug.graphs) <= r
    assert not aug.graphs or aug.graphs[-1].m
    for h, layer in zip(aug.graphs, layers):
        assert h == Digraph(g.n, layer)
    assert not any(layers[len(aug.graphs):])


def _refuse_arc_view(*args, **kwargs):
    raise AssertionError("the wcol order needs no arc view of the augmentation")


def test_wcol_order_reads_no_arc_view(monkeypatch):
    g = random_digraph(200, 600, 1)
    expected = order_from_augmentation(g, tfa_augment(g, 3))
    monkeypatch.setattr(Augmentation, "layers", property(_refuse_arc_view))
    assert compute_wcol_order(random_digraph(200, 600, 1), 3) == expected


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records the arguments of
    each call; returns the list of records."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("g, r", [
    (random_digraph(200, 600, 1), 3),
    (random_digraph(30, 60, 4), 40),  # the closure stops, every later layer is empty
    (directed_path(12), 12),
    (Digraph(5), 3),  # no arcs: no layer is peeled
], ids=["random", "past-closure", "path", "edgeless"])
def test_augmentation_peels_each_nonempty_layer_once(monkeypatch, g, r):
    # the peel's live lists are the layers' out-lists: no order is built,
    # and a layer that gains no pair is not peeled
    orders = _count_calls(monkeypatch, LinearOrder, "__init__")
    peels = _count_calls(monkeypatch, coloring, "_peel_lists")
    aug = tfa_augment(g, r)
    assert orders == []
    assert len(peels) == sum(1 for h in aug.graphs if h.m)


def test_wcol_order_builds_one_linear_order(monkeypatch):
    orders = _count_calls(monkeypatch, LinearOrder, "__init__")
    compute_wcol_order(random_digraph(200, 600, 1), 3)
    assert len(orders) == 1


def _bidirected_star(leaves):
    return Digraph(leaves + 1, [a for v in range(1, leaves + 1) for a in ((0, v), (v, 0))])


def _with_antiparallel_arcs(g):
    # every third arc also runs backwards
    return Digraph(g.n, set(g.arcs()) | {(v, u) for u, v in g.arcs()[::3]})


_CLOSURE_GRAPHS = st.one_of(
    _GRAPHS,
    st.builds(_bidirected_star, st.integers(0, 30)),
    _GRAPHS.map(_with_antiparallel_arcs),
)


@given(_CLOSURE_GRAPHS, st.integers(1, 4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_partner_sets_are_the_layer_union(g, r):
    aug = tfa_augment(g, r)
    union = [set() for _ in range(g.n)]
    for u, v in frozenset().union(*aug.layers):
        union[u].add(v)
        union[v].add(u)
    assert list(aug.partners) == union
    # the partner sets take no part in ``==``, ``hash`` or ``repr``
    other = Augmentation(n=aug.n, depth=aug.depth, graphs=aug.graphs, partners=())
    assert other == aug and hash(other) == hash(aug) and repr(other) == repr(aug)


def test_augmentation_requires_partner_sets():
    with pytest.raises(TypeError):
        Augmentation(n=1, depth=1, graphs=(Digraph(1),))


_TINY_GRAPHS = [
    Digraph(1),
    Digraph(3, [(0, 1), (1, 2)]),
    Digraph(4, [(0, 1), (1, 0), (2, 3)]),
    apex_crown(3),
]


@given(_GRAPHS.filter(lambda g: g.n <= 12), st.integers(4, 24))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_augmentation_past_its_closure_matches_pair_list_reference(g, r):
    # the reference computes every layer up to r; the augmentation stops
    # once a run of empty layers proves the rest empty
    aug = tfa_augment(g, r)
    ref_layers = _ref_tfa_augment(g, r)
    assert aug.layers == tuple(ref_layers)
    res = order_from_augmentation(g, aug)
    assert (res.order, res.smaller_neighbors, res.max_outdegree) == _ref_order(g.n, ref_layers)


@pytest.mark.parametrize("g", _TINY_GRAPHS, ids=["point", "path3", "pair-and-arc", "apex-crown3"])
def test_large_radius_augmentation_is_a_padded_small_run(g):
    # the layer graphs stop with the closure; only the arc view is padded
    small, big = tfa_augment(g, 12), tfa_augment(g, 2000)
    assert big.depth == len(big.layers) == 2000
    assert big.graphs == small.graphs
    assert big.layers == small.layers + (frozenset(),) * (2000 - 12)
    assert order_from_augmentation(g, big) == order_from_augmentation(g, small)


def test_wcol_order_memory_is_flat_in_the_radius():
    # nothing is kept per layer past the closure, so the peak does not
    # grow with r
    g = directed_path(3)
    tracemalloc.start()
    try:
        compute_wcol_order(g, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_augmentation_builds_no_layer_past_its_closure(monkeypatch):
    g = random_digraph(30, 60, 4)
    fills = []
    real = Digraph._fill

    def counted(self, n, out):
        fills.append(n)
        return real(self, n, out)

    monkeypatch.setattr(Digraph, "_fill", counted)
    counts = []
    for r in (40, 400, 4000):
        fills.clear()
        tfa_augment(g, r)
        counts.append(len(fills))
    assert counts[0] == counts[1] == counts[2] < 40


def test_order_guarantee_holds():
    cases = [(directed_path(8), 3), (apex_crown(5), 2), (directed_path(16), 4)]
    for seed in range(3):
        cases.append((random_digraph(30, 60, seed), 1 + seed % 3))
    for g, r in cases:
        res = compute_wcol_order(g, r)
        assert wcol_of_order(g, res.order, r) <= res.guarantee


def test_mismatch_against_reachability_arcs():
    # per-vertex disagreement between the built layers and the
    # weak-reachability arcs of an optimal order stays under
    # 4^(i-1) * (2c)^(2^(i-1))
    for seed in range(3):
        g = random_digraph(7, 13, seed)
        r = 3
        c, witness = wcol_exact(g, r)
        aug = tfa_augment(g, r)
        f_arcs = []
        for i in range(1, r + 1):
            sets = wreach_all(g, witness, i)
            f_arcs.append(
                {(u, v) for v in range(g.n) for u in sets[v] if u != v}
            )
        e_prefix: set = set()
        f_prefix: set = set()
        for i in range(1, r + 1):
            e_prefix |= set(aug.layers[i - 1])
            f_prefix |= {(v, u) for (u, v) in f_arcs[i - 1]}
            bound = 4 ** (i - 1) * (2 * c) ** (2 ** (i - 1))
            diff = e_prefix ^ f_prefix
            for v in range(g.n):
                incident = sum(1 for (a, b) in diff if v in (a, b))
                assert incident <= bound


# ---------------------------------------------------------------------------
# low tree-depth colorings


def test_coloring_edgeless():
    assert low_treedepth_coloring(Digraph(5), 2) == [0] * 5


def test_coloring_class_unions_have_low_wcol():
    g = directed_path(15)
    p = 2
    radius = 2 ** p
    colors = low_treedepth_coloring(g, p)
    res = compute_wcol_order(g, radius)
    palette = sorted(set(colors))
    for i, a in enumerate(palette):
        keep = [v for v in range(g.n) if colors[v] == a]
        h = remove_vertices(g, set(range(g.n)) - set(keep))
        assert wcol_of_order(h, res.order, radius) <= 1
        for b in palette[i + 1:]:
            keep2 = [v for v in range(g.n) if colors[v] in (a, b)]
            h2 = remove_vertices(g, set(range(g.n)) - set(keep2))
            assert wcol_of_order(h2, res.order, radius) <= 2
            assert longest_directed_path_arcs(h2) < radius


def test_coloring_radius_cap():
    with pytest.raises(SizeCapError):
        low_treedepth_coloring(directed_path(4), 9)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_wcol_order_fills_one_graph_per_layer(monkeypatch, r):
    # the layers are the only graphs built: no graph of a layer's new
    # pairs, none of the union
    g = random_digraph(200, 600, 1)
    fill = Digraph._fill
    calls = []

    def counting_fill(self, n, out):
        calls.append(n)
        return fill(self, n, out)

    monkeypatch.setattr(Digraph, "_fill", counting_fill)
    compute_wcol_order(g, r)
    assert len(calls) == r
