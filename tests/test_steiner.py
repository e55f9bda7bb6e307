"""Steiner solvers against the enumeration oracle."""
import heapq
import inspect
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import (Digraph, DstInstance, apex_crown, bidirected_clique, directed_path,
                           random_digraph)
from sparsedigraph import steiner
from sparsedigraph.digraph import _bfs, degeneracy, remove_vertices
from sparsedigraph.errors import InternalInvariantError, SizeCapError
from sparsedigraph.oracles import (
    dst_exact_enum,
    dst_valid,
    scss_exact_enum,
    verify_strongly_connected,
)
from sparsedigraph.steiner import (
    dst_exact_subset,
    dst_fpt,
    format_dst_instance,
    parse_dst_instance,
    preprocess_contract,
    scss_2approx,
    source_terminals,
)


def make_instance(seed, n_max=11, k_max=3, force_terminal_cycle=False):
    rng = random.Random(seed)
    n = rng.randint(4, n_max)
    m = rng.randint(n, min(3 * n, n * (n - 1)))
    g = random_digraph(n, m, seed * 17 + 1)
    root = rng.randrange(n)
    pool = [v for v in range(n) if v != root]
    terminals = frozenset(rng.sample(pool, rng.randint(1, max(1, len(pool) // 2))))
    if force_terminal_cycle and len(terminals) >= 2:
        ts = sorted(terminals)[:3]
        arcs = set(g.arcs())
        for i in range(len(ts)):
            u, v = ts[i], ts[(i + 1) % len(ts)]
            if u != v:
                arcs.add((u, v))
        g = Digraph(n, arcs)
    k = rng.randint(0, k_max)
    return DstInstance(g, root, terminals, k)


def planted_hub_instance(seed: int = 1) -> DstInstance:
    """A 24-vertex planted-hub host, shaped like the benchmark's desk jobs.

    Root 0 points at hubs 1-3; each hub points at 9 of the 11 terminals
    5-15, two hubs and no fewer reach them all, and 5 and 6 form a
    2-cycle, so 10 source terminals remain after contraction.  Every
    terminal points at 4, which points at the root.  A random background
    on the 13 non-terminals makes d = 2 * degeneracy exceed 9, so no hub
    is high-degree and the whole instance is one 10-source leaf.
    """
    n, root, back = 24, 0, 4
    terms = range(5, 16)
    targets = {
        1: (5, 7, 8, 9, 10, 11, 12, 13, 14),
        2: (6, 8, 9, 10, 11, 12, 13, 14, 15),
        3: (5, 7, 9, 10, 11, 12, 13, 14, 15),
    }
    arcs = {(root, h) for h in targets} | {(h, t) for h in targets for t in targets[h]}
    arcs |= {(5, 6), (6, 5), (back, root)} | {(t, back) for t in terms}
    others = [v for v in range(n) if v not in terms]
    background = random_digraph(len(others), 2 * n, seed)
    arcs |= {(others[u], others[v]) for u, v in background.arcs()}
    return DstInstance(Digraph(n, arcs), root, frozenset(terms), 2)


@st.composite
def dst_instances(draw, max_n=12):
    """A random host with a root, terminals (sometimes on a cycle) and a
    budget; sparse enough that the root often cannot reach everything."""
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(0, min(3 * n, n * (n - 1))))
    arcs = set(random_digraph(n, m, draw(st.integers(0, 10**6))).arcs())
    root = draw(st.integers(0, n - 1))
    pool = [v for v in range(n) if v != root]
    terminals = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()) and len(terminals) >= 2:
        ts = sorted(terminals)
        arcs |= {(ts[i], ts[(i + 1) % len(ts)]) for i in range(len(ts))}
    budget = draw(st.integers(0, n))
    return DstInstance(Digraph(n, arcs), root, frozenset(terminals), budget)


# ---------------------------------------------------------------------------
# preprocessing


def test_contract_noop_on_acyclic_terminals():
    g = directed_path(5)
    inst = DstInstance(g, 0, frozenset({2, 4}), 1)
    reduced, mapping, s = preprocess_contract(inst)
    assert reduced.graph.n == g.n
    assert s == 0
    assert mapping == list(range(5))


def test_contract_terminal_cycle():
    # terminals 1,2,3 on a directed triangle collapse to one vertex
    g = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    inst = DstInstance(g, 0, frozenset({1, 2, 3}), 0)
    reduced, mapping, s = preprocess_contract(inst)
    assert reduced.graph.n == 3
    assert s == 2
    assert len(reduced.terminals) == 1


def test_contract_preserves_solutions():
    for seed in range(12):
        inst = make_instance(seed, force_terminal_cycle=True)
        reduced, mapping, _ = preprocess_contract(inst)
        a = dst_exact_enum(inst)
        b = dst_exact_enum(reduced)
        assert (a is None) == (b is None)
        if a is not None:
            assert len(a) == len(b)


def test_source_terminals():
    g = directed_path(4)
    assert source_terminals(g, {1, 2, 3}) == {1}
    h = Digraph(4)
    assert source_terminals(h, {0, 2}) == {0, 2}


def test_reaching_sources_reaches_all():
    from sparsedigraph.digraph import out_ball

    for seed in range(15):
        inst = make_instance(seed)
        reduced, _, _ = preprocess_contract(inst)
        g, t = reduced.graph, reduced.terminals
        t0 = source_terminals(g, t)
        for trial in range(5):
            rng = random.Random(seed * 31 + trial)
            s = frozenset(
                v for v in range(g.n)
                if v not in t and v != reduced.root and rng.random() < 0.4
            )
            full = dst_valid(g, reduced.root, t, s)
            allowed = s | t | {reduced.root}
            sources_reached = t0 <= out_ball(g, reduced.root, g.n, within=allowed)
            assert full == sources_reached


# ---------------------------------------------------------------------------
# exact subset DP


def test_subset_dp_direct_neighbors():
    g = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    t = frozenset({1, 2, 3})
    assert dst_exact_subset(g, 0, t, t, 0) == frozenset()


def test_subset_dp_single_connector():
    g = Digraph(3, [(0, 1), (1, 2)])
    sol = dst_exact_subset(g, 0, frozenset({2}), frozenset({2}), 1)
    assert sol == frozenset({1})
    assert dst_exact_subset(g, 0, frozenset({2}), frozenset({2}), 0) is None


def test_subset_dp_uses_terminal_paths_for_free():
    # root -> t1 -> t2 -> x -> t3: terminals bridge at no cost, x costs 1
    g = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    t = frozenset({1, 2, 4})
    sol = dst_exact_subset(g, 0, t, source_terminals(g, t), 2)
    assert sol == frozenset({3})


def test_subset_dp_matches_enumeration():
    for seed in range(25):
        inst = make_instance(seed, n_max=11)
        reduced, _, _ = preprocess_contract(inst)
        g, t = reduced.graph, reduced.terminals
        t0 = source_terminals(g, t)
        if len(t0) > 8:
            continue
        expect = dst_exact_enum(
            DstInstance(g, reduced.root, t, reduced.budget)
        )
        got = dst_exact_subset(g, reduced.root, t, t0, reduced.budget)
        assert (expect is None) == (got is None)
        if expect is not None:
            assert len(got) == len(expect)
            assert dst_valid(g, reduced.root, t, got)


def test_subset_dp_unreachable_root_is_infeasible_at_any_budget():
    # the root's side {1, 2} never reaches terminal 0: the DP's INF (n + 1
    # after contraction) must not pass as a cost once the budget reaches it
    g = Digraph(3, [(1, 2), (2, 1)])
    for budget in range(6):
        assert dst_exact_subset(g, 2, {0}, {0}, budget) is None
    res = dst_fpt(DstInstance(g, 2, frozenset({0}), 4))
    assert res.solution is None
    assert len(res.nodes_per_budget) == 5


def _dst_exact_subset_reference(g, root, terminals, sources, budget):
    """The subset DP as it stood before the in-list overlay and the lazy
    split parents: a second graph with the bypass arcs, and a parent
    record on every improvement."""
    terminals = frozenset(terminals)
    sources = frozenset(sources)
    if not sources:
        return frozenset()
    extra = set()
    for t in sorted(sources):
        for x in _bfs(g.out_neighbors, (t,), within=terminals):
            extra.update((t, y) for y in g.out_neighbors(x)
                         if y not in terminals and not g.has_arc(t, y))
    work = Digraph(g.n, set(g.arcs()) | extra) if extra else g
    n = g.n
    cost = [0 if (v == root or v in terminals) else 1 for v in range(n)]
    src = sorted(sources)
    full = (1 << len(src)) - 1
    INF = n + 1
    dp = [[INF] * n for _ in range(full + 1)]
    parent = {}
    for mask in range(1, full + 1):
        row = dp[mask]
        if mask & (mask - 1) == 0:
            t = src[mask.bit_length() - 1]
            row[t] = 0
            parent[(mask, t)] = ("base",)
        else:
            sub = (mask - 1) & mask
            while sub > (mask ^ sub):
                left, right = dp[sub], dp[mask ^ sub]
                for v in range(n):
                    cand = left[v] + right[v]
                    if cand < row[v]:
                        row[v] = cand
                        parent[(mask, v)] = ("split", sub, v)
                sub = (sub - 1) & mask
        heap = [(row[v], v) for v in range(n) if row[v] < INF]
        heapq.heapify(heap)
        while heap:
            dist, x = heapq.heappop(heap)
            if dist > row[x]:
                continue
            step = dist + cost[x]
            for w in work.in_neighbors(x):
                if step < row[w]:
                    row[w] = step
                    parent[(mask, w)] = ("step", x)
                    heapq.heappush(heap, (step, w))
    if dp[full][root] > budget:
        return None
    chosen = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        chosen.add(v)
        kind = parent[(mask, v)]
        if kind[0] == "split":
            stack.append((kind[1], v))
            stack.append((mask ^ kind[1], v))
        elif kind[0] == "step":
            stack.append((mask, kind[1]))
    return frozenset(v for v in chosen if cost[v] == 1)


@given(dst_instances(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_subset_dp_matches_reference(inst, contracted):
    # at every budget, since the DP caps its states there; the reference
    # only fails (KeyError) for budgets above n, where its INF sentinel
    # passes the budget test
    if contracted:
        inst = preprocess_contract(inst)[0]
    g, t = inst.graph, inst.terminals
    sources = source_terminals(g, t) if contracted else t
    for budget in range(g.n + 1):
        got = dst_exact_subset(g, inst.root, t, sources, budget)
        assert got == _dst_exact_subset_reference(g, inst.root, t, sources, budget), budget


@st.composite
def chained_subset_instances(draw, max_n=18, max_sources=10):
    """A host whose terminals partly hang in zero-cost chains t -> t' -> ...,
    with up to ``max_sources`` of them as the DP's sources."""
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(n, min(3 * n, n * (n - 1))))
    arcs = set(random_digraph(n, m, draw(st.integers(0, 10**6))).arcs())
    root = draw(st.integers(0, n - 1))
    pool = [v for v in range(n) if v != root]
    k = min(draw(st.integers(1, max_sources)), len(pool))
    terminals = draw(st.lists(st.sampled_from(pool), min_size=k,
                              max_size=min(len(pool), k + 4), unique=True))
    linked = draw(st.lists(st.booleans(), min_size=len(terminals), max_size=len(terminals)))
    arcs |= {(a, b) for a, b, link in zip(terminals, terminals[1:], linked) if link}
    sources = frozenset(draw(st.permutations(terminals))[:k])
    return Digraph(n, arcs), root, frozenset(terminals), sources


def _root_value(subset_dp, g, root, terminals, sources):
    """dp[full][root] read off a subset DP's answers: the least budget at
    which it returns a set, or None when no budget up to n does."""
    if subset_dp(g, root, terminals, sources, g.n) is None:
        return None
    lo, hi = 0, g.n
    while lo < hi:
        mid = (lo + hi) // 2
        if subset_dp(g, root, terminals, sources, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


@given(chained_subset_instances())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_packed_subset_dp_matches_reference_on_terminal_chains(case):
    g, root, terminals, sources = case
    got = dst_exact_subset(g, root, terminals, sources, g.n)
    assert got == _dst_exact_subset_reference(g, root, terminals, sources, g.n)
    assert (_root_value(dst_exact_subset, g, root, terminals, sources)
            == _root_value(_dst_exact_subset_reference, g, root, terminals, sources))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_subset_dp_matches_reference_at_ten_sources(seed):
    inst = preprocess_contract(planted_hub_instance(seed))[0]
    g, root, t = inst.graph, inst.root, inst.terminals
    sources = source_terminals(g, t)
    assert len(sources) == 10
    got = dst_exact_subset(g, root, t, sources, g.n)
    assert got == _dst_exact_subset_reference(g, root, t, sources, g.n)
    assert (_root_value(dst_exact_subset, g, root, t, sources)
            == _root_value(_dst_exact_subset_reference, g, root, t, sources) == 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("contracted", [True, False], ids=["10-sources", "11-sources"])
def test_subset_dp_matches_reference_on_desk_hosts(seed, contracted):
    # the benchmark's desk leaf: the contracted host's 10 source terminals,
    # or all 11 terminals of the raw host as sources, at the desk budgets
    inst = planted_hub_instance(seed)
    g, root, t = inst.graph, inst.root, inst.terminals
    sources = t
    if contracted:
        inst = preprocess_contract(inst)[0]
        g, root, t = inst.graph, inst.root, inst.terminals
        sources = source_terminals(g, t)
    assert len(sources) == (10 if contracted else 11)
    for budget in (1, 4, 5, g.n):
        got = dst_exact_subset(g, root, t, sources, budget)
        assert got == _dst_exact_subset_reference(g, root, t, sources, budget), budget


def test_subset_dp_lanes_hold_costs_past_16_bits():
    # root 0 -> 1 -> ... -> n-3 forks to the sources n-2 and n-1: the tree
    # costs n-3 > 2^16, and merged lanes reach twice that
    n = 70000
    arcs = [(v, v + 1) for v in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    g = Digraph(n, arcs)
    t = frozenset({n - 2, n - 1})
    assert dst_exact_subset(g, 0, t, t, n) == frozenset(range(1, n - 2))
    assert dst_exact_subset(g, 0, t, t, n - 4) is None


def test_subset_dp_buckets_follow_the_capped_budget():
    # root 0 -> 1 -> ... -> 10 forks to two sources.  The queue holds one
    # bucket per distance up to min(n, budget), so a huge budget costs what
    # budget n costs.  The memory check runs first: a queue sized from the
    # budget fails it before the call at 10**9 could allocate.
    n = 13
    g = Digraph(n, [(v, v + 1) for v in range(10)] + [(10, 11), (10, 12)])
    t = frozenset({11, 12})
    want = dst_exact_subset(g, 0, t, t, n)
    assert want == frozenset(range(1, 11))
    tracemalloc.start()
    try:
        assert dst_exact_subset(g, 0, t, t, 10**6) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
    assert dst_exact_subset(g, 0, t, t, 10**9) == want


@pytest.mark.parametrize("cost", [62, 63, 16382, 16383])
def test_subset_dp_lane_widths_at_the_cap(cost):
    # root 0 -> 1 -> ... -> cost forks to two sources: the tree costs
    # ``cost``.  The DP caps its states at min(n, budget), and rows take
    # 8-bit lanes up to a cap of 62, 16-bit lanes up to 16382 and 32-bit
    # lanes above, so the budgets cost - 1 and cost straddle a width change
    # at the two larger costs; the merged lanes on the path hold 2 * cost
    n = cost + 3
    arcs = [(v, v + 1) for v in range(cost)] + [(cost, n - 2), (cost, n - 1)]
    g = Digraph(n, arcs)
    t = frozenset({n - 2, n - 1})
    for budget in (cost - 1, cost, n):
        got = dst_exact_subset(g, 0, t, t, budget)
        assert got == _dst_exact_subset_reference(g, 0, t, t, budget)
        assert got == (None if budget < cost else frozenset(range(1, cost + 1)))


@st.composite
def gapped_subset_instances(draw, max_sources=6):
    """Sources fed by non-terminal chains of mixed lengths, so that merged
    rows hold finite values with gaps between them, on a spine of
    terminals t1 -> t2 -> ... whose zero-cost runs are long."""
    spine = draw(st.integers(1, 12))
    n = 1 + spine  # root 0, then the terminal spine 1 .. spine
    arcs = {(t, t + 1) for t in range(1, spine)}
    for _ in range(draw(st.integers(1, 5))):
        # a chain of fresh non-terminals from an existing vertex into another
        start, end = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        prev = start
        for v in range(n, n + draw(st.integers(0, 9))):
            arcs.add((prev, v))
            prev = v
        n = max(n, prev + 1)
        if prev != end:
            arcs.add((prev, end))
    vertex = st.integers(0, n - 1)
    arcs |= {(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2))
             if u != v}
    terminals = frozenset(range(1, spine + 1))
    k = draw(st.integers(1, min(max_sources, spine)))
    sources = frozenset(draw(st.permutations(sorted(terminals)))[:k])
    return Digraph(n, arcs), 0, terminals, sources


@given(gapped_subset_instances())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_subset_dp_matches_reference_on_gapped_rows(case):
    g, root, terminals, sources = case
    got = dst_exact_subset(g, root, terminals, sources, g.n)
    assert got == _dst_exact_subset_reference(g, root, terminals, sources, g.n)
    assert (_root_value(dst_exact_subset, g, root, terminals, sources)
            == _root_value(_dst_exact_subset_reference, g, root, terminals, sources))


@pytest.mark.parametrize("spine", [0, 1, 40])
def test_subset_dp_merged_row_with_even_values_only(spine):
    # root 0 -> 1 -> ... -> 30 forks to two sources, which hang off the end
    # of a terminal spine of length ``spine``: the full row holds only even
    # values along the path, so every other distance has an empty bucket
    n = 31
    arcs = [(v, v + 1) for v in range(30)]
    terms = []
    for _ in range(2):
        chain = list(range(n, n + spine + 1))
        n += spine + 1
        arcs += [(30, chain[0])] + list(zip(chain, chain[1:]))
        terms += chain
    g = Digraph(n, arcs)
    t = frozenset(terms)
    sources = frozenset({terms[spine], terms[-1]})
    got = dst_exact_subset(g, 0, t, sources, n)
    assert got == frozenset(range(1, 31))
    assert got == _dst_exact_subset_reference(g, 0, t, sources, n)
    assert dst_exact_subset(g, 0, t, sources, 29) is None


def test_subset_dp_tie_breaks_match_reference_on_dense_hosts():
    # on about one dense host in 500, equal-cost trees with different
    # non-terminals are told apart only by the order in which vertices of
    # one distance leave the queue (smallest id first)
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        g = random_digraph(n, rng.randint(n, min(3 * n, n * (n - 1))), seed)
        root = rng.randrange(n)
        pool = [v for v in range(n) if v != root]
        terminals = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 7))))
        sources = frozenset(rng.sample(sorted(terminals), rng.randint(1, min(4, len(terminals)))))
        got = dst_exact_subset(g, root, terminals, sources, n)
        assert got == _dst_exact_subset_reference(g, root, terminals, sources, n), seed


def test_subset_dp_table_cap(monkeypatch):
    g = Digraph(20, [(0, v) for v in range(1, 20)])
    t = frozenset(range(1, 6))
    assert dst_exact_subset(g, 0, t, t, 20) == frozenset()
    monkeypatch.setattr(steiner, "MAX_SUBSET_DP_CELLS", 32 * 20 - 1)
    with pytest.raises(SizeCapError, match="table cells"):
        dst_exact_subset(g, 0, t, t, 20)
    # a DP with no sources needs no table, even past the cap's n
    monkeypatch.setattr(steiner, "MAX_SUBSET_DP_CELLS", 19)
    assert dst_exact_subset(g, 0, t, (), 20) == frozenset()


@given(dst_instances(max_n=16), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_preprocess_contract_with_dead_matches_removal(inst, data):
    g = inst.graph
    pool = [v for v in range(g.n) if v != inst.root and v not in inst.terminals]
    dead = frozenset(data.draw(st.sets(st.sampled_from(pool))) if pool else ())
    got, got_map, got_s = preprocess_contract(inst, dead)
    stripped = DstInstance(remove_vertices(g, dead), inst.root, inst.terminals, inst.budget)
    want, want_map, want_s = preprocess_contract(stripped)
    assert got == want
    assert (got_map, got_s) == (want_map, want_s)


def test_fpt_runs_each_leaf_dp_once_across_budgets(monkeypatch):
    # the desk-like instance is one 10-source leaf; budget 1 finds it too
    # expensive and budget 2 solves it, from the same DP table
    calls = []
    real = steiner.dst_exact_subset

    def counted(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(steiner, "dst_exact_subset", counted)
    res = dst_fpt(planted_hub_instance())
    assert res.solution == frozenset({1, 2})
    assert res.nodes_per_budget == (1, 1, 1)
    assert calls == [2]


def test_fpt_leaf_memo_tells_absorbed_sets_apart():
    # hubs 3 and 5 both reach all ten terminals; 3 hangs off the root by
    # the path 0 -> 1 -> 2, 5 by 0 -> 4.  At budget 2 the leaf that
    # absorbed 3 needs {1, 2} and fails, and the leaf that absorbed 5, on
    # the same alive set, needs {4} only
    paths = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)]
    g = Digraph(16, paths + [(h, t) for h in (3, 5) for t in range(6, 16)])
    inst = DstInstance(g, 0, frozenset(range(6, 16)), 3)
    res = dst_fpt(inst)
    assert res.solution == frozenset({4, 5})
    assert len(res.solution) == len(dst_exact_enum(inst, max_n=16))


def test_subset_dp_cap():
    g = random_digraph(20, 60, 1)
    t = frozenset(range(1, 18))
    with pytest.raises(SizeCapError):
        dst_exact_subset(g, 0, t, t, 3)


# ---------------------------------------------------------------------------
# FPT solver


def _dst_fpt_reference(inst, max_sources=16):
    """``dst_fpt`` as it stood with a full peel and a scan over every alive
    vertex for the high-degree set, its leaves solved by the reference DP."""
    reduced, mapping, s = preprocess_contract(inst)
    g = reduced.graph
    root = reduced.root
    terminals = reduced.terminals
    dgen, _, _ = degeneracy(g)
    d = 2 * dgen
    inverse = {new: old for old, new in enumerate(mapping) if old not in inst.terminals}
    everything = frozenset(range(g.n))
    leaves = {}

    def solve_leaf(alive, absorbed, k_rem):
        key = (alive, absorbed)
        if key not in leaves:
            inner = DstInstance(g, root, terminals | absorbed, inst.budget)
            inner2, inner_map, _ = preprocess_contract(inner, everything - alive)
            t0 = source_terminals(inner2.graph, inner2.terminals)
            assert len(t0) <= max_sources
            sol = _dst_exact_subset_reference(
                inner2.graph, inner2.root, inner2.terminals, t0,
                min(inst.budget, inner2.graph.n))
            if sol is not None:
                inner_inverse = {new: old for old, new in enumerate(inner_map)
                                 if old not in inner.terminals}
                sol = frozenset(inner_inverse[v] for v in sol)
            leaves[key] = sol
        sol = leaves[key]
        return sol if sol is not None and len(sol) <= k_rem else None

    counter = [0]

    def rec(alive, absorbed, k_rem):
        counter[0] += 1
        t_all = terminals | absorbed
        sources = frozenset(
            t for t in t_all
            if not any(u in t_all for u in g.in_neighbors(t) if u in alive)
        )
        dominated = set()
        for x in sorted(absorbed | {root}):
            dominated.update(w for w in g.out_neighbors(x) if w in alive)
        t_bar = frozenset(t for t in sources if t not in dominated)
        if k_rem == 0 and t_bar:
            return None
        nonterms = [v for v in sorted(alive) if v not in t_all and v != root]
        s_high = frozenset(
            v for v in nonterms
            if sum(1 for t in g.out_neighbors(v) if t in t_bar) > d
        )
        t_high = frozenset(t for t in t_bar if any(u in s_high for u in g.in_neighbors(t)))
        if len(t_bar - t_high) > d * k_rem:
            return None
        if not s_high:
            extra = solve_leaf(alive, absorbed, k_rem)
            return None if extra is None else absorbed | extra
        v = min(t_high, key=lambda t: (sum(1 for u in g.in_neighbors(t) if u in s_high), t))
        dominators = sorted(u for u in g.in_neighbors(v) if u in s_high)
        if k_rem >= 1:
            for cand in dominators:
                found = rec(alive, absorbed | {cand}, k_rem - 1)
                if found is not None:
                    return found
        return rec(alive - frozenset(dominators), absorbed, k_rem)

    nodes_per_budget = []
    solution = None
    for budget in range(inst.budget + 1):
        counter[0] = 0
        found = rec(frozenset(range(g.n)), frozenset(), budget)
        nodes_per_budget.append(counter[0])
        if found is not None:
            solution = frozenset(inverse[v] for v in found)
            break
    return solution, d, s, tuple(nodes_per_budget)


@st.composite
def hub_instances(draw):
    """Small hosts where some non-terminals reach many terminals, so that
    the branching, not only the leaf DP, has work to do."""
    n = draw(st.integers(4, 16))
    root = 0
    hubs = draw(st.integers(1, min(3, n - 2)))
    terminals = list(range(1 + hubs, n))
    arcs = {(root, h) for h in range(1, 1 + hubs)}
    for h in range(1, 1 + hubs):
        arcs |= {(h, t) for t in draw(st.sets(st.sampled_from(terminals)))}
    arcs |= set(random_digraph(n, draw(st.integers(0, 2 * n)), draw(st.integers(0, 10**6))).arcs())
    picked = draw(st.sets(st.sampled_from(terminals), min_size=1))
    return DstInstance(Digraph(n, arcs), root, frozenset(picked), draw(st.integers(0, 4)))


@given(st.one_of(dst_instances(), hub_instances()))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fpt_matches_reference(inst):
    res = dst_fpt(inst)
    got = (res.solution, res.degree_threshold, res.scc_diameter, res.nodes_per_budget)
    assert got == _dst_fpt_reference(inst)


@given(dst_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_scss_peels_once(inst):
    calls = []
    real = steiner._smallest_last

    def counted(und):
        calls.append(len(und))
        return real(und)

    terminals = inst.terminals | {inst.root}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steiner, "_smallest_last", counted)
        got = scss_2approx(inst.graph, terminals, inst.budget)
    assert len(calls) == 1
    anchor, rest = min(terminals), terminals - {min(terminals)}
    fwd = _dst_fpt_reference(DstInstance(inst.graph, anchor, rest, inst.budget))[0]
    bwd = (_dst_fpt_reference(DstInstance(inst.graph.reverse(), anchor, rest, inst.budget))[0]
           if fwd is not None else None)
    assert got == (None if bwd is None else fwd | bwd)


@st.composite
def antiparallel_block_instances(draw):
    """``dst_instances`` hosts with antiparallel arcs added and two or three
    terminals on a cycle, so the contraction merges a terminal block."""
    inst = draw(dst_instances())
    arcs = set(inst.graph.arcs())
    if arcs:
        arcs |= {(v, u) for u, v in draw(st.sets(st.sampled_from(sorted(arcs)), min_size=1))}
    pool = [v for v in range(inst.graph.n) if v != inst.root]
    cycle = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True))
    arcs |= {(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
    return DstInstance(Digraph(inst.graph.n, arcs), inst.root,
                       inst.terminals | set(cycle), inst.budget)


@given(antiparallel_block_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fpt_degree_threshold_peels_unsorted_sets(inst):
    calls = []
    real = Digraph.underlying_neighbors

    def counted(g, v):
        calls.append(v)
        return real(g, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Digraph, "underlying_neighbors", counted)
        res = dst_fpt(inst)
    assert calls == []
    reduced = preprocess_contract(inst)[0].graph
    assert reduced.n < inst.graph.n
    assert res.degree_threshold == 2 * degeneracy(reduced)[0]


def test_each_host_is_contracted_once(monkeypatch):
    # the terminal 2-cycle 5 <-> 6 makes the top-level contraction build a
    # graph; the leaf then finds only singletons and no dead vertex, so it
    # reuses that graph, and SCSS contracts once for both of its runs
    built = []
    reversed_n = []
    real_contract, real_reverse = steiner.contract, Digraph.reverse

    def counted_contract(g, partition, dead=()):
        h, mapping = real_contract(g, partition, dead)
        built.append(h is not g)
        return h, mapping

    def counted_reverse(g):
        reversed_n.append(g.n)
        return real_reverse(g)

    monkeypatch.setattr(steiner, "contract", counted_contract)
    monkeypatch.setattr(Digraph, "reverse", counted_reverse)
    inst = planted_hub_instance()
    dst_fpt(inst)
    assert built == [True, False]  # the top level, then the one leaf
    built.clear()
    assert scss_2approx(inst.graph, inst.terminals | {inst.root}, inst.budget) is not None
    assert len(built) >= 2 and built.count(True) == 1
    assert reversed_n == [inst.graph.n - 1]


def test_fpt_budget_zero():
    g = Digraph(3, [(0, 1), (1, 2)])
    res = dst_fpt(DstInstance(g, 0, frozenset({1, 2}), 0))
    assert res.solution == frozenset()


def test_fpt_matches_oracle_decisions():
    for seed in range(30):
        inst = make_instance(seed, force_terminal_cycle=(seed % 3 == 0))
        res = dst_fpt(inst)
        expect = dst_exact_enum(inst)
        assert (res.solution is None) == (expect is None), f"seed {seed}"
        if expect is not None:
            assert len(res.solution) == len(expect)
            assert dst_valid(inst.graph, inst.root, inst.terminals, res.solution)


def test_fpt_node_counter_under_bound():
    for seed in range(10):
        inst = make_instance(seed)
        res = dst_fpt(inst)  # raises InternalInvariantError past the bound
        d = res.degree_threshold
        for budget, nodes in enumerate(res.nodes_per_budget):
            assert nodes <= (d + 1) ** (budget * (d + 1))


def _stack_depth():
    return len(inspect.stack(0))


def test_fpt_deletion_chain_does_not_recurse():
    # hubs 1..L each point at an own source and at 2L shared ones; the
    # underlying graph has degeneracy L, so d = 2L and every hub
    # dominates 2L + 1 > d sources.  At budget 1 each deletion branch
    # strips one hub (the one over the smallest own source), L times in a
    # row, until the 3L undominated sources exceed d * 1
    L = 60
    hubs = range(1, L + 1)
    own = range(L + 1, 2 * L + 1)
    shared = range(2 * L + 1, 4 * L + 1)
    arcs = [(0, h) for h in hubs] + list(zip(hubs, own))
    arcs += [(h, s) for h in hubs for s in shared]
    inst = DstInstance(Digraph(4 * L + 1, arcs), 0, frozenset(own) | frozenset(shared), 1)
    limit = sys.getrecursionlimit()
    # a chain of L nested calls would not fit
    sys.setrecursionlimit(_stack_depth() + L // 2)
    try:
        res = dst_fpt(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert res.solution is None
    assert res.degree_threshold == 2 * L
    # budget 1: L deletion passes, one failing absorption under each, and
    # the last pass
    assert res.nodes_per_budget == (1, 2 * L + 1)


def test_fpt_node_bound_stops_the_run_at_once(monkeypatch):
    # a forced d = 0 allows one node per budget; at budget 1 the child
    # that absorbs hub 1 is the second node, and the run must stop before
    # that child solves its leaf
    calls = []
    monkeypatch.setattr(steiner, "dst_exact_subset", lambda *args: calls.append(args))
    inst = DstInstance(Digraph(3, [(0, 1), (1, 2)]), 0, frozenset({2}), 1)
    with pytest.raises(InternalInvariantError, match="recursion grew past"):
        dst_fpt(inst, _degeneracy=0)
    assert calls == []


def test_fpt_unreachable_terminal_runs_every_budget():
    # the terminal is unreachable, so all 20001 budgets run; each node
    # bound is the last one times one factor, so the run stays linear
    inst = parse_dst_instance("digraph 3 1\n0 1\nroot 0\nterminal 2\nbudget 20000\n")
    res = dst_fpt(inst)
    assert res.solution is None
    assert res.nodes_per_budget == (1,) * 20001


def test_fpt_node_bound_stays_small_over_many_budgets():
    # d = 118 and an unreachable terminal: all 2001 budgets run one node
    # each, and the exact bound (d+1)^(budget(d+1)) would grow to 200 KB
    g = Digraph(62, [*bidirected_clique(60).arcs(), (60, 0)])
    dst_fpt(DstInstance(g, 60, frozenset({61}), 1))  # fill the caches first
    tracemalloc.start()
    try:
        res = dst_fpt(DstInstance(g, 60, frozenset({61}), 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.solution is None and res.degree_threshold == 118
    assert res.nodes_per_budget == (1,) * 2001
    assert peak < 2**18


def test_fpt_apex_crown_root_through_apex():
    g0 = apex_crown(6)
    n = g0.n
    g = Digraph(n + 1, g0.arcs() + [(n, n - 1)])  # fresh root -> apex
    terminals = frozenset(range(6))
    res = dst_fpt(DstInstance(g, n, terminals, 1))
    expect = dst_exact_enum(DstInstance(g, n, terminals, 1), max_n=n + 1)
    assert (res.solution is None) == (expect is None)


def test_reverse_preserves_grad():
    from sparsedigraph.minors import grad

    for seed in range(3):
        g = random_digraph(6, 10, seed)
        for r in (0, 1):
            assert grad(g, r) == grad(g.reverse(), r)


# ---------------------------------------------------------------------------
# SCSS


def test_scss_already_strong():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert scss_2approx(g, {0, 1, 2}, 1) == frozenset()


def test_scss_bidirected_star():
    arcs = [(0, i) for i in range(1, 4)] + [(i, 0) for i in range(1, 4)]
    g = Digraph(4, arcs)
    assert scss_2approx(g, {1, 2, 3}, 1) == frozenset({0})


def test_scss_empty_terminals_rejected():
    with pytest.raises(ValueError):
        scss_2approx(directed_path(3), set(), 1)


def test_scss_within_twice_optimum():
    found = 0
    seed = 0
    while found < 15 and seed < 200:
        seed += 1
        rng = random.Random(seed + 5000)
        n = rng.randint(4, 9)
        g = random_digraph(n, rng.randint(2 * n, min(4 * n, n * (n - 1))), seed)
        terminals = frozenset(rng.sample(range(n), rng.randint(2, 3)))
        opt = scss_exact_enum(g, terminals, 3)
        if opt is None:
            continue
        found += 1
        got = scss_2approx(g, terminals, 3)
        assert got is not None
        assert len(got) <= 2 * max(len(opt), 0) or len(got) <= len(opt)
        assert verify_strongly_connected(g, terminals | got)
    assert found >= 10


# ---------------------------------------------------------------------------
# files


def test_instance_file_roundtrip():
    inst = make_instance(3)
    text = format_dst_instance(inst, comments=["test"])
    back = parse_dst_instance(text)
    assert back.graph == inst.graph
    assert back.root == inst.root
    assert back.terminals == inst.terminals
    assert back.budget == inst.budget


def test_instance_file_requires_root():
    with pytest.raises(ValueError):
        parse_dst_instance("digraph 2 1\n0 1\nbudget 1\n")
