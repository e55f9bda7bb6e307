"""Steiner solvers against the enumeration oracle."""
import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, DstInstance, apex_crown, directed_path, random_digraph
from sparsedigraph import steiner
from sparsedigraph.digraph import _bfs, remove_vertices
from sparsedigraph.errors import SizeCapError
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
    # the reference only fails (KeyError) for budgets above n, where its
    # INF sentinel passes the budget test; at most n both must agree exactly
    if contracted:
        inst = preprocess_contract(inst)[0]
    g, t = inst.graph, inst.terminals
    sources = source_terminals(g, t) if contracted else t
    budget = min(inst.budget, g.n)
    got = dst_exact_subset(g, inst.root, t, sources, budget)
    assert got == _dst_exact_subset_reference(g, inst.root, t, sources, budget)


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
