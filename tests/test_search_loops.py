"""The package's exhaustive searches run as loops over explicit stacks.

Each search is checked against the self-recursive closure it replaced,
copied here as the reference: the same values, witnesses, orders and,
for ``dst_fpt``, node counts.  Each also runs under a recursion limit a
few frames above the caller's depth, on an input whose search goes
deeper than that: the reference raises RecursionError there.
"""
import inspect
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, DstInstance, LinearOrder, bidirected_clique, random_digraph
from sparsedigraph.coloring import (
    _adm_candidates,
    _max_disjoint,
    adm_exact,
    adm_of_order,
    wcol_exact,
    wcol_of_order,
)
from sparsedigraph.digraph import (
    _adjacency_masks,
    _bits,
    _mask_reach,
    _smallest_last,
    in_ball,
    induced_subgraph,
)
from sparsedigraph.errors import InternalInvariantError, _check_cap
from sparsedigraph.minors import (
    DirectedModel,
    _arcs_between,
    _BlockInfo,
    _connected_subsets,
    _max_subgraph_density,
    grad,
    is_depth_r_minor,
    validate_model,
)
from sparsedigraph.oracles import _cover_masks, alpha_r_exact, dst_valid, gamma_r_exact
from sparsedigraph.steiner import (
    _lift,
    dst_exact_subset,
    dst_fpt,
    preprocess_contract,
    source_terminals,
)

from test_steiner import dst_instances, hub_instances

# ---------------------------------------------------------------------------
# references: the recursions the loops replaced


def ref_gamma_r_exact(g, r, targets=None, max_n=16):
    _check_cap("gamma_r_exact", g.n, max_n)
    tgt = sorted(set(range(g.n) if targets is None else targets))
    if not tgt:
        return 0, frozenset()
    masks = _cover_masks(g, r, tgt)
    full = (1 << len(tgt)) - 1
    order = sorted(range(g.n), key=lambda v: (-bin(masks[v]).count("1"), v))

    best = []
    uncovered = full
    while uncovered:
        v = max(range(g.n), key=lambda x: (bin(masks[x] & uncovered).count("1"), -x))
        if masks[v] & uncovered == 0:
            best = list(range(g.n))
            break
        best.append(v)
        uncovered &= ~masks[v]
    if uncovered:
        raise ValueError("target set cannot be dominated at this radius")
    best_set = best

    chosen = []

    def rec(uncovered):
        nonlocal best_set
        if uncovered == 0:
            if len(chosen) < len(best_set):
                best_set = list(chosen)
            return
        biggest = max(bin(masks[v] & uncovered).count("1") for v in order)
        if biggest == 0:
            return
        lb = len(chosen) + ceil(bin(uncovered).count("1") / biggest)
        if lb >= len(best_set):
            return
        pick, fewest = -1, None
        for i in range(len(tgt)):
            if uncovered >> i & 1:
                cnt = sum(1 for v in order if masks[v] >> i & 1)
                if fewest is None or cnt < fewest:
                    pick, fewest = i, cnt
        coverers = [v for v in order if masks[v] >> pick & 1]
        coverers.sort(key=lambda v: (-bin(masks[v] & uncovered).count("1"), v))
        for v in coverers:
            chosen.append(v)
            rec(uncovered & ~masks[v])
            chosen.pop()

    rec(full)
    return len(best_set), frozenset(best_set)


def ref_alpha_r_exact(g, r, max_n=16):
    _check_cap("alpha_r_exact", g.n, max_n)
    n = g.n
    balls = [in_ball(g, v, r) for v in range(n)]
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if balls[i] & balls[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    best_set = []
    chosen = []

    def rec(avail):
        nonlocal best_set
        if len(chosen) + bin(avail).count("1") <= len(best_set):
            return
        if avail == 0:
            best_set = list(chosen)
            return
        i = (avail & -avail).bit_length() - 1
        chosen.append(i)
        rec(avail & ~(conflict[i] | (1 << i)))
        chosen.pop()
        rec(avail & ~(1 << i))

    rec((1 << n) - 1)
    return len(best_set), frozenset(best_set)


def ref_wcol_exact(g, r, max_n=9):
    _check_cap("wcol_exact", g.n, max_n)
    n = g.n
    if n == 0:
        return 0, LinearOrder([])
    out_mask, in_mask = _adjacency_masks(g)

    @cache
    def reach(u, allowed):
        start = 1 << u
        both = _mask_reach(out_mask, start, allowed, r) | _mask_reach(in_mask, start, allowed, r)
        return both & ~start

    heuristic = _smallest_last([g.underlying_neighbors(v) for v in range(g.n)])[1]
    best = wcol_of_order(g, heuristic, r)
    best_order = heuristic

    counts = [1] * n
    seq = []

    def dfs(unplaced, max_placed):
        nonlocal best, best_order
        if unplaced == 0:
            if max_placed < best:
                best = max_placed
                best_order = LinearOrder(seq)
            return
        for u in _bits(unplaced):
            final_u = counts[u]
            new_max = max(max_placed, final_u)
            if new_max >= best:
                continue
            touched = reach(u, unplaced)
            for w in _bits(touched):
                counts[w] += 1
            rest = unplaced & ~(1 << u)
            if all(counts[w] < best for w in _bits(rest)):
                seq.append(u)
                dfs(rest, new_max)
                seq.pop()
            for w in _bits(touched):
                counts[w] -= 1

    dfs((1 << n) - 1, 1)
    return best, best_order


def ref_max_disjoint(groups, idx=0, used=frozenset(), cnt=0, best=0):
    if cnt + (len(groups) - idx) <= best:
        return best
    if idx == len(groups):
        return cnt
    for s in groups[idx]:
        if not (s & used):
            best = ref_max_disjoint(groups, idx + 1, used | s, cnt + 1, best)
    return ref_max_disjoint(groups, idx + 1, used, cnt, best)


def ref_adm_of_order(g, order, v, r):
    smaller = frozenset(w for w in range(g.n) if order.position(w) < order.position(v))
    return ref_max_disjoint([[s] for s in _adm_candidates(g, v, smaller, r)])


def ref_adm_exact(g, r, max_n=9):
    _check_cap("adm_exact", g.n, max_n)
    n = g.n
    if n == 0:
        return 0, LinearOrder([])

    @cache
    def adm_val(u, smaller_mask):
        smaller = frozenset(_bits(smaller_mask))
        return ref_max_disjoint([[s] for s in _adm_candidates(g, u, smaller, r)])

    identity = LinearOrder.identity(n)
    best = max(ref_adm_of_order(g, identity, v, r) for v in range(n))
    best_order = identity
    seq = []

    def dfs(placed_mask, cur_max):
        nonlocal best, best_order
        if placed_mask == (1 << n) - 1:
            if cur_max < best:
                best = cur_max
                best_order = LinearOrder(seq)
            return
        for u in range(n):
            if placed_mask >> u & 1:
                continue
            val = adm_val(u, placed_mask)
            new_max = max(cur_max, val)
            if new_max >= best:
                continue
            seq.append(u)
            dfs(placed_mask | (1 << u), new_max)
            seq.pop()

    dfs(0, 0)
    return best, best_order


def ref_is_depth_r_minor(h, g, r, max_n=12):
    _check_cap("is_depth_r_minor", g.n, max_n)
    if r < 0:
        raise ValueError("depth must be nonnegative")
    if h.n == 0:
        return DirectedModel(r, {}, {}, {}, {})
    if h.n > g.n:
        return None

    subsets = _connected_subsets(g)
    max_block = g.n - (h.n - 1)
    subsets = [m for m in subsets if bin(m).count("1") <= max_block]
    info = cache(partial(_BlockInfo, g, r=r))
    arcs_between = cache(partial(_arcs_between, g))

    h_order = sorted(
        range(h.n),
        key=lambda v: (-(len(h.out_neighbors(v)) + len(h.in_neighbors(v))), v),
    )
    assign = {}

    def try_images():
        harcs = h.arcs()
        cands = []
        for (u, v) in harcs:
            c = arcs_between(assign[u], assign[v])
            if not c:
                return None
            cands.append(c)
        order = sorted(range(len(harcs)), key=lambda i: len(cands[i]))
        ins = {v: set() for v in range(h.n)}
        outs = {v: set() for v in range(h.n)}
        images = {}

        def feas(v):
            return (
                info(assign[v]).feasible(frozenset(ins[v]), frozenset(outs[v]), r)
                is not None
            )

        def place_arc(idx):
            if idx == len(order):
                return True
            e = harcs[order[idx]]
            u, v = e
            for (a, b) in cands[order[idx]]:
                added_out = a not in outs[u]
                added_in = b not in ins[v]
                outs[u].add(a)
                ins[v].add(b)
                images[e] = (a, b)
                if feas(u) and feas(v) and place_arc(idx + 1):
                    return True
                del images[e]
                if added_out:
                    outs[u].discard(a)
                if added_in:
                    ins[v].discard(b)
            return False

        if not place_arc(0):
            return None
        sources, sinks = {}, {}
        for v in range(h.n):
            st_ = info(assign[v]).feasible(frozenset(ins[v]), frozenset(outs[v]), r)
            sources[v], sinks[v] = st_
        model = DirectedModel(
            depth=r,
            branch_sets={v: frozenset(_bits(assign[v])) for v in range(h.n)},
            arc_images=dict(images),
            sources=sources,
            sinks=sinks,
        )
        assert validate_model(h, g, r, model)
        return model

    def place(i, used):
        if i == len(h_order):
            return try_images()
        v = h_order[i]
        for mask in subsets:
            if mask & used:
                continue
            assign[v] = mask
            links = [(mask, assign[u]) for u in h.out_neighbors(v) if u in assign]
            links += [(assign[u], mask) for u in h.in_neighbors(v) if u in assign]
            if all(arcs_between(a, b) for a, b in links):
                found = place(i + 1, used | mask)
                if found is not None:
                    return found
            del assign[v]
        return None

    return place(0, 0)


def ref_grad(g, r, max_n=8):
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r == 0:
        return _max_subgraph_density(g, max(max_n, 14))
    _check_cap("grad", g.n, max_n)
    if g.n == 0:
        return Fraction(0)

    subsets = _connected_subsets(g)
    by_leader = {v: [] for v in range(g.n)}
    for mask in subsets:
        by_leader[(mask & -mask).bit_length() - 1].append(mask)

    info = cache(partial(_BlockInfo, g, r=r))
    arcs_between = cache(partial(_arcs_between, g))

    best = Fraction(0)

    def max_arcs(blocks):
        k = len(blocks)
        pairs = []
        for i in range(k):
            for j in range(k):
                if i != j and arcs_between(blocks[i], blocks[j]):
                    pairs.append((i, j))
        if all(bin(b).count("1") == 1 for b in blocks):
            return len(pairs)
        ins = [set() for _ in range(k)]
        outs = [set() for _ in range(k)]
        best_cnt = 0

        def feas(i):
            return info(blocks[i]).feasible(frozenset(ins[i]), frozenset(outs[i]), r) is not None

        def rec(idx, cnt):
            nonlocal best_cnt
            if cnt + (len(pairs) - idx) <= best_cnt:
                return
            if idx == len(pairs):
                best_cnt = max(best_cnt, cnt)
                return
            i, j = pairs[idx]
            for (a, b) in arcs_between(blocks[i], blocks[j]):
                new_out = a not in outs[i]
                new_in = b not in ins[j]
                outs[i].add(a)
                ins[j].add(b)
                if feas(i) and feas(j):
                    rec(idx + 1, cnt + 1)
                if new_out:
                    outs[i].discard(a)
                if new_in:
                    ins[j].discard(b)
            rec(idx + 1, cnt)

        rec(0, 0)
        return best_cnt

    blocks = []

    def partitions(avail):
        nonlocal best
        if avail == 0:
            if blocks:
                best = max(best, Fraction(max_arcs(blocks), len(blocks)))
            return
        leader = (avail & -avail).bit_length() - 1
        partitions(avail & ~(1 << leader))
        for mask in by_leader[leader]:
            if mask & ~avail:
                continue
            blocks.append(mask)
            partitions(avail & ~mask)
            blocks.pop()

    partitions((1 << g.n) - 1)
    return best


def ref_dst_fpt(inst):
    """``dst_fpt`` as a recursion through absorptions, a loop through
    deletions; returns the ``DstFptResult`` fields as a tuple."""
    reduced, mapping, s = preprocess_contract(inst)
    g = reduced.graph
    root = reduced.root
    terminals = reduced.terminals
    d = 2 * _smallest_last([g.underlying_neighbors(v) for v in range(g.n)])[0]
    everything = frozenset(range(g.n))

    @cache
    def leaf_optimum(alive, absorbed):
        inner = DstInstance(g, root, terminals | absorbed, inst.budget)
        inner2, inner_map, _ = preprocess_contract(inner, everything - alive)
        t0 = source_terminals(inner2.graph, inner2.terminals)
        sol = dst_exact_subset(inner2.graph, inner2.root, inner2.terminals, t0, inst.budget)
        if sol is None:
            return None
        return _lift(inner_map, inner.terminals, sol)

    counter = [0]
    limit = [0]

    def rec(alive, absorbed, k_rem):
        while True:
            counter[0] += 1
            if counter[0] > limit[0]:
                raise InternalInvariantError(
                    f"recursion grew past (d+1)^(k(d+1)) at budget {budget}"
                )
            t_all = terminals | absorbed
            sources = source_terminals(g, t_all)
            dominated = set()
            for x in sorted(absorbed | {root}):
                dominated.update(w for w in g.out_neighbors(x) if w in alive)
            t_bar = frozenset(t for t in sources if t not in dominated)
            if k_rem == 0 and t_bar:
                return None
            dominates = Counter(
                u for t in t_bar for u in g.in_neighbors(t)
                if u in alive and u not in t_all and u != root
            )
            s_high = frozenset(u for u, count in dominates.items() if count > d)
            t_high = frozenset(
                t for t in t_bar
                if any(u in s_high for u in g.in_neighbors(t))
            )
            t_low = t_bar - t_high
            if len(t_low) > d * k_rem:
                return None
            if not s_high:
                extra = leaf_optimum(alive, absorbed)
                if extra is None or len(extra) > k_rem:
                    return None
                return absorbed | extra
            v = min(
                t_high,
                key=lambda t: (sum(1 for u in g.in_neighbors(t) if u in s_high), t),
            )
            dominators = sorted(u for u in g.in_neighbors(v) if u in s_high)
            if k_rem >= 1:
                for cand in dominators:
                    found = rec(alive, absorbed | {cand}, k_rem - 1)
                    if found is not None:
                        return found
            alive = alive - frozenset(dominators)

    nodes_per_budget = []
    solution = None
    for budget in range(inst.budget + 1):
        counter[0] = 0
        limit[0] = (d + 1) ** (budget * (d + 1))
        found = rec(frozenset(range(g.n)), frozenset(), budget)
        nodes_per_budget.append(counter[0])
        if found is not None:
            solution = _lift(mapping, inst.terminals, found)
            assert dst_valid(inst.graph, inst.root, inst.terminals, solution)
            break
    return solution, d, s, tuple(nodes_per_budget)


# ---------------------------------------------------------------------------
# differential: the loops against the recursions


@st.composite
def small_digraphs(draw, max_n, arcs_per_vertex=None):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, n * min(n - 1, arcs_per_vertex or n)))
    return random_digraph(n, m, draw(st.integers(0, 10**6)))


def same_order(a, b):
    return a[0] == b[0] and a[1].seq == b[1].seq


# two minimum dominators at r = 1: {0, 2, 5, 7} comes first in the search
TWO_MINIMA = Digraph(8, [(0, 1), (1, 7), (2, 1), (2, 3), (3, 1), (3, 6), (4, 3), (4, 6),
                         (5, 6), (6, 5), (7, 4)])


@given(small_digraphs(12, arcs_per_vertex=3), st.integers(1, 2),
       st.none() | st.sets(st.integers(0, 11)))
@example(TWO_MINIMA, 1, None)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gamma_and_alpha_match_the_recursion(g, r, targets):
    if targets is not None:
        targets = {t for t in targets if t < g.n}
    assert gamma_r_exact(g, r, targets) == ref_gamma_r_exact(g, r, targets)
    assert alpha_r_exact(g, r) == ref_alpha_r_exact(g, r)


@given(small_digraphs(7), st.integers(1, 3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_wcol_and_adm_exact_match_the_recursion(g, r):
    assert same_order(wcol_exact(g, r), ref_wcol_exact(g, r))
    assert same_order(adm_exact(g, r), ref_adm_exact(g, r))


vertex_sets = st.frozensets(st.integers(0, 7), max_size=3)


@given(st.lists(st.lists(vertex_sets, max_size=3), max_size=7))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_max_disjoint_matches_the_recursion(groups):
    assert _max_disjoint(groups) == ref_max_disjoint(groups)


@given(small_digraphs(7), st.integers(0, 2), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_minor_search_matches_the_recursion(g, r, data):
    # an induced subgraph of the host always has a model, often with arcs
    if data.draw(st.booleans()):
        keep = st.sets(st.integers(0, g.n - 1), min_size=min(2, g.n), max_size=5)
        h = induced_subgraph(g, data.draw(keep))[0]
    else:
        h = data.draw(small_digraphs(4))
    assert repr(is_depth_r_minor(h, g, r)) == repr(ref_is_depth_r_minor(h, g, r))


@given(small_digraphs(6), st.integers(1, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_grad_matches_the_recursion(g, r):
    assert grad(g, r) == ref_grad(g, r)


@given(st.one_of(dst_instances(), hub_instances()))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dst_fpt_matches_the_recursion(inst):
    res = dst_fpt(inst)
    got = (res.solution, res.degree_threshold, res.scc_diameter, res.nodes_per_budget)
    assert got == ref_dst_fpt(inst)


# ---------------------------------------------------------------------------
# depth: each search under a recursion limit a few frames above the caller

FRAMES = 16  # the loops' deepest helper call chains take 3 to 12


def depth():
    """The recursion depth here as the interpreter counts it, which calls
    through C code raise past ``inspect.stack``'s count of frames."""
    limit = sys.getrecursionlimit()
    low = len(inspect.stack(0))
    try:
        while True:
            try:
                sys.setrecursionlimit(low + 1)  # refused while depth >= low + 1
                return low
            except RecursionError:
                low += 1
    finally:
        sys.setrecursionlimit(limit)


def shallow(call):
    """``call()`` with the recursion limit FRAMES above the current depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + FRAMES)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


def runs_shallow(search, reference):
    """The result of ``search()`` under ``shallow``, where ``reference()``,
    the recursion it replaced, runs out of stack."""
    with pytest.raises(RecursionError):
        shallow(reference)
    return shallow(search)


def test_gamma_search_does_not_recurse():
    # 30 one-arc out-stars, then a 60-leaf one: each small hub is the
    # only coverer of itself, so the search takes them one level at a time
    hub = 60
    g = Digraph(hub + 61, [(2 * i, 2 * i + 1) for i in range(30)]
                + [(hub, hub + 1 + j) for j in range(60)])
    value, witness = runs_shallow(lambda: gamma_r_exact(g, 1, max_n=g.n),
                                  lambda: ref_gamma_r_exact(g, 1, max_n=g.n))
    assert (value, witness) == (31, frozenset(range(0, 62, 2)))


def test_alpha_search_does_not_recurse():
    g = Digraph(40, [])
    assert runs_shallow(lambda: alpha_r_exact(g, 1, max_n=40),
                        lambda: ref_alpha_r_exact(g, 1, max_n=40)) == (40, frozenset(range(40)))


def test_wcol_search_does_not_recurse():
    # 16 paths l -> c -> l', centers 0..15: the smallest-last heuristic
    # scores 3 at r = 2, and the search's first branch places every
    # center before any end, reaching 2 after 48 levels
    k = 16
    g = Digraph(3 * k, [(k + j, j) for j in range(k)] + [(j, 2 * k + j) for j in range(k)])
    value, order = runs_shallow(lambda: wcol_exact(g, 2, max_n=g.n),
                                lambda: ref_wcol_exact(g, 2, max_n=g.n))
    assert (value, order.seq) == (2, tuple(range(3 * k)))


def test_adm_search_does_not_recurse():
    # a bidirected path whose last two vertices are swapped: the identity
    # order scores 2, and the search's first branch goes 29 levels deep
    n = 30
    seq = list(range(n - 2)) + [n - 1, n - 2]
    arcs = list(zip(seq, seq[1:]))
    g = Digraph(n, arcs + [(b, a) for a, b in arcs])
    value, order = runs_shallow(lambda: adm_exact(g, n, max_n=n),
                                lambda: ref_adm_exact(g, n, max_n=n))
    assert (value, order.seq) == (1, tuple(seq))


def test_packing_search_does_not_recurse():
    groups = [[frozenset({i})] for i in range(40)]
    assert runs_shallow(lambda: _max_disjoint(groups), lambda: ref_max_disjoint(groups)) == 40


def test_branch_set_search_does_not_recurse():
    # an arcless 13-vertex pattern in an arcless host: one level per vertex
    g = Digraph(13, [])
    model = runs_shallow(lambda: is_depth_r_minor(g, g, 0, max_n=13),
                         lambda: ref_is_depth_r_minor(g, g, 0, max_n=13))
    assert model is not None and len(model.branch_sets) == 13


def test_arc_image_search_does_not_recurse():
    # a 7-clique in itself: one level per each of the 42 pattern arcs
    k7 = bidirected_clique(7)
    model = runs_shallow(lambda: is_depth_r_minor(k7, k7, 0),
                         lambda: ref_is_depth_r_minor(k7, k7, 0))
    assert model is not None and len(model.arc_images) == 42


def test_partition_search_does_not_recurse():
    g = Digraph(12, [])
    assert runs_shallow(lambda: grad(g, 1, max_n=12),
                        lambda: ref_grad(g, 1, max_n=12)) == 0


def test_grad_arc_search_does_not_recurse():
    # branch partitions of a 7-clique with a two-vertex block have up to
    # 30 block pairs, one level each
    k7 = bidirected_clique(7)
    assert runs_shallow(lambda: grad(k7, 1), lambda: ref_grad(k7, 1)) == 6


def test_fpt_absorption_chain_does_not_recurse():
    # root -> hub 1 -> ... -> hub H, each hub over 2H + 1 own sources: all
    # H hubs are high-degree and needed, and each budget b < H absorbs b
    # of them in a row while every deletion branch fails at once
    H = 15
    s = 2 * H + 1
    arcs = [(0, 1)] + [(h, h + 1) for h in range(1, H)]
    arcs += [(h, H + 1 + (h - 1) * s + i) for h in range(1, H + 1) for i in range(s)]
    inst = DstInstance(Digraph(H + 1 + H * s, arcs), 0, frozenset(range(H + 1, H + 1 + H * s)), H)
    res = runs_shallow(lambda: dst_fpt(inst), lambda: ref_dst_fpt(inst))
    assert res.solution == frozenset(range(1, H + 1))
    assert res.nodes_per_budget == tuple(2 * b + 1 for b in range(H)) + (H + 1,)


def test_adm_of_a_two_thousand_leaf_star_does_not_recurse():
    n = 2001
    g = Digraph(n, [(n - 1, v) for v in range(n - 1)])
    assert adm_of_order(g, LinearOrder.identity(n), n - 1, 1) == 2000
