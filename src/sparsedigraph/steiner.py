"""Directed Steiner tree solvers.

The pipeline follows the standard shape for sparse hosts: contract the
strongly connected parts of the terminal-induced subgraph, reduce
reachability to the in-degree-0 terminals, and branch on who dominates a
hard source terminal.  Non-terminals that dominate more than
d = 2 * degeneracy source terminals are few enough that branching over
them plus one deletion branch keeps the tree small; once no such vertex
remains the residual instance is solved exactly by a subset dynamic
program over the source terminals (Dreyfus-Wagner style, with vertex
costs as arc head weights).  Each host is contracted once, at the top;
SCSS runs both of its instances on that one contraction.

Every solution that leaves this module has been validated by direct
reachability checks on the caller's graph.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from struct import Struct
from typing import Optional

from .digraph import (
    Digraph,
    _bfs,
    _content_lines,
    _smallest_last,
    contract,
    format_digraph,
    induced_subgraph,
    out_ball,
    parse_digraph,
    scc,
)
from .errors import InternalInvariantError, SizeCapError
from .oracles import dst_valid, verify_strongly_connected
from .steiner_types import DstInstance


def preprocess_contract(inst: DstInstance, dead: frozenset = frozenset()
                        ) -> tuple[DstInstance, list[int], int]:
    """Contract every strongly connected component of G[T].

    Returns the reduced instance, the old-to-new vertex mapping, and the
    largest component diameter s.  Solutions transfer unchanged in both
    directions: the contracted vertices are all terminals.  The arcs at
    the ``dead`` vertices (never the root or a terminal) are dropped in
    the same pass, so the result equals preprocessing
    ``remove_vertices(inst.graph, dead)``.  If that changes nothing,
    the reduced instance shares ``inst.graph`` (see ``contract``).
    """
    g = inst.graph
    term = sorted(inst.terminals)
    sub, old_of = induced_subgraph(g, term)
    dec = scc(sub)
    s = max(dec.diameters, default=0)
    blocks = [
        [old_of[v] for v in comp] for comp in dec.components if len(comp) > 1
    ]
    contracted, mapping = contract(g, blocks, dead)
    new_terminals = frozenset(mapping[t] for t in inst.terminals)
    reduced = DstInstance(
        graph=contracted,
        root=mapping[inst.root],
        terminals=new_terminals,
        budget=inst.budget,
    )
    return reduced, mapping, s


def _lift(mapping: list[int], terminals, solution) -> frozenset:
    """A reduced instance's solution in the original's vertex ids: its
    vertices are non-terminals, which ``preprocess_contract`` never merges."""
    inverse = {new: old for old, new in enumerate(mapping) if old not in terminals}
    return frozenset(inverse[v] for v in solution)


def source_terminals(g: Digraph, terminals) -> frozenset:
    """Terminals without an in-arc from another terminal."""
    term = frozenset(terminals)
    return frozenset(
        t for t in term if not any(u in term for u in g.in_neighbors(t))
    )


# ---------------------------------------------------------------------------
# exact subset DP

# most source terminals, k, and largest subset DP table, 2^k * n cells,
# that dst_exact_subset accepts
MAX_SUBSET_SOURCES = 16
MAX_SUBSET_DP_CELLS = 1 << 24


def _lanes(n: int, largest: int) -> tuple[Struct, int]:
    """The struct packing n lanes of the narrowest width, 8, 16 or 32
    bits, that holds ``largest``, and that width: lane v is bits
    width*v .. width*v + width - 1 of the packed int."""
    for code, width in (("B", 8), ("H", 16), ("I", 32)):
        if largest < 1 << width:
            break
    return Struct(f"<{n}{code}"), width


def dst_exact_subset(g: Digraph, root: int, terminals, sources, budget: int) -> Optional[frozenset]:
    """Minimum set of non-terminals connecting the root to every source.

    A Dreyfus-Wagner subset DP over the k sources with all terminals free:
    dp[mask][v] is the cheapest tree at v reaching the sources in mask.
    Each mask merges two halves at every vertex, then relaxes along
    in-arcs in a shortest-path search.  Returns None when the minimum
    exceeds the budget or no tree exists.  More than
    ``MAX_SUBSET_SOURCES`` sources, or a table of more than
    ``MAX_SUBSET_DP_CELLS`` cells, raise SizeCapError before anything is
    allocated.

    The table is capped at the budget: INF = min(n, budget) + 1, and
    every state above min(n, budget) reads as INF.  No state at or below
    the budget depends on the cap, since such a state is built only from
    states no larger (a merge adds two non-negative values, a relaxation
    adds 0 or 1); so neither do their pop order, their parents, the
    split the walk back picks, or the returned set.  A relaxation out of
    a non-terminal at distance min(n, budget) is skipped: its step can
    improve no lane.

    Each row dp[mask] is one int with a w-bit lane per vertex: lane v is
    bits w*v to w*v + w - 1.  A split is merged into the row for all
    vertices at once: with ``high`` holding bit w - 1 of every lane, the
    lanes of ``((acc | high) - cand) & high`` are set exactly where
    cand <= acc, and subtracting that shifted down by w - 1 widens each
    set bit into a mask of its lane's low w - 1 bits, which selects
    cand.  The row starts at INF in every lane, so acc <= INF and
    cand <= 2 * INF; w is the narrowest of 8, 16 and 32 with
    2 * INF < 2^(w-1), so both stay below bit w - 1 and no subtraction
    borrows across lanes.  With k >= 1 the cell cap keeps
    n <= MAX_SUBSET_DP_CELLS / 2, so 32 bits always suffice.  The merge
    costs O(3^k) operations on n-lane ints, O(3^k * n * w / 64) word
    steps with a small constant.

    The relaxation runs on the row unpacked into a list.  Vertex costs
    are 0 or 1, so its queue is Dial's (1969): a list of INF min-heaps
    of vertex ids, indexed by distance and drained in order.  Relaxing
    out of a free vertex pushes into the bucket being drained, out of a
    non-terminal into the next one.  Vertices leave in (dist, v) order,
    the order of one heap keyed by both, so the tie-break does not
    depend on the queue; a mask costs O(INF + n + m log n), INF <= n + 1.

    Bypass arcs from each source to the first non-terminals along
    terminal-internal paths are laid over the in-lists of their heads
    (no second graph).  They never lower a cost, since terminals are
    free, but they change which of several equal-cost trees the search
    finds first, and the tie-break fixes the output, so they stay.

    Only the relaxations record parents, packed like the rows but in the
    narrowest lanes that hold n, which marks the lanes no relaxation
    reached: with free terminals the search's pop order cannot be
    replayed from the table.  The walk back takes, at a state without
    one that is not a source's base case, the first split in enumeration
    order whose halves sum to the state's value: the one a
    strict-improvement loop would have kept.
    """
    terminals = frozenset(terminals)
    sources = frozenset(sources)
    if not sources <= terminals:
        raise ValueError("sources must be terminals")
    if root in terminals:
        raise ValueError("root cannot be a terminal")
    if len(sources) > MAX_SUBSET_SOURCES:
        raise SizeCapError(
            f"dst_exact_subset: {len(sources)} sources exceed cap {MAX_SUBSET_SOURCES}"
        )
    if budget < 0:
        return None
    if not sources:
        return frozenset()
    cells = (1 << len(sources)) * g.n
    if cells > MAX_SUBSET_DP_CELLS:
        raise SizeCapError(
            f"dst_exact_subset: 2^{len(sources)} * {g.n} = {cells} table cells"
            f" exceed cap {MAX_SUBSET_DP_CELLS}"
        )

    n = g.n
    # bypass arcs: source -> first non-terminal along terminal-internal paths
    extra: dict[int, set[int]] = {}
    for t in sorted(sources):
        for x in _bfs(g.out_neighbors, (t,), within=terminals):
            for y in g.out_neighbors(x):
                if y not in terminals and not g.has_arc(t, y):
                    extra.setdefault(y, set()).add(t)
    in_nb = [g.in_neighbors(v) for v in range(n)]
    for y, tails in extra.items():
        in_nb[y] = tuple(sorted(in_nb[y] + tuple(tails)))

    cost = [0 if (v == root or v in terminals) else 1 for v in range(n)]
    src = sorted(sources)
    k = len(src)
    full = (1 << k) - 1
    INF = min(n, budget) + 1  # every state above the budget reads as INF
    rows, width = _lanes(n, 4 * INF)  # a merged lane, <= 2 * INF, stays below the top bit
    parents, pwidth = _lanes(n, n)
    top = width - 1

    def pack(lanes: Struct, values) -> int:
        return int.from_bytes(lanes.pack(*values), "little")

    def lane(packed: int, v: int, width: int = width) -> int:
        return (packed >> (width * v)) & ((1 << width) - 1)

    all_inf = pack(rows, [INF] * n)
    high = pack(rows, [1 << top] * n)
    dp = [all_inf] * (full + 1)
    # lane v of step_parent[mask]: the vertex whose relaxation set dp[mask][v], or n
    step_parent = [0] * (full + 1)

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            row = [INF] * n
            row[src[mask.bit_length() - 1]] = 0
        else:
            acc = all_inf
            sub = (mask - 1) & mask
            while sub > (mask ^ sub):
                cand = dp[sub] + dp[mask ^ sub]
                t = ((acc | high) - cand) & high
                acc ^= (acc ^ cand) & (t - (t >> top))
                sub = (sub - 1) & mask
            row = list(rows.unpack(acc.to_bytes(rows.size, "little")))
        # filled in ascending v, every bucket starts as a valid heap
        buckets: list[list[int]] = [[] for _ in range(INF)]
        for v, d in enumerate(row):
            if d < INF:
                buckets[d].append(v)
        parent = [n] * n
        for dist, here in enumerate(buckets):
            while here:
                x = heappop(here)
                if dist > row[x]:
                    continue
                step = dist + cost[x]
                if step == INF:  # out of a non-terminal at min(n, budget): improves no lane
                    continue
                into = buckets[step]
                for w in in_nb[x]:
                    if step < row[w]:
                        row[w] = step
                        parent[w] = x
                        heappush(into, w)
        dp[mask] = pack(rows, row)
        step_parent[mask] = pack(parents, parent)

    if lane(dp[full], root) >= INF:  # above min(n, budget): no tree, or none in budget
        return None

    chosen: set[int] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        chosen.add(v)
        x = lane(step_parent[mask], v, pwidth)
        if x < n:
            stack.append((mask, x))
        elif mask & (mask - 1):
            value = lane(dp[mask], v)
            sub = (mask - 1) & mask
            while lane(dp[sub], v) + lane(dp[mask ^ sub], v) != value:
                sub = (sub - 1) & mask
                if sub <= mask ^ sub:
                    raise InternalInvariantError("subset DP lost a split")
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
    solution = frozenset(v for v in chosen if cost[v] == 1)
    if not sources <= out_ball(g, root, g.n,
                               within=frozenset(solution) | terminals | {root}):
        raise InternalInvariantError("subset DP produced an invalid tree")
    return solution


# ---------------------------------------------------------------------------
# FPT branching solver


@dataclass(frozen=True)
class DstFptResult:
    """Outcome of the branching solver.

    ``solution`` is a minimum-cardinality solution within the budget, or
    None.  ``nodes_per_budget[i]`` counts search-tree nodes of the run
    with budget i; ``degree_threshold`` is the high-degree cutoff d and
    ``scc_diameter`` the parameter s from preprocessing.
    """

    solution: Optional[frozenset]
    degree_threshold: int
    scc_diameter: int
    nodes_per_budget: tuple[int, ...]


def dst_fpt(inst: DstInstance, *, _degeneracy: Optional[int] = None) -> DstFptResult:
    """Solve DST, minimizing the solution size within the budget.

    Budgets are tried in increasing order, so a returned solution has
    globally minimum cardinality.  Each run is a depth-first search over
    an explicit stack, so its depth costs no Python frames; its node
    count is checked against (d+1)^(budget*(d+1)) at every node, so a run
    past the bound stops there.

    The high-degree threshold d is twice the degeneracy of the contracted
    host's underlying graph, computable at any size.  The peel reads each
    vertex's neighbours as an unsorted set: its removal order, and so d,
    does not depend on the order in which a row is read.  ``_degeneracy``
    passes in that degeneracy when the caller already has it (see
    ``scss_2approx``) and skips the peel.
    """
    reduced, mapping, s = preprocess_contract(inst)
    g = reduced.graph
    root = reduced.root
    terminals = reduced.terminals
    dgen = _degeneracy
    if dgen is None:
        dgen = _smallest_last([{*o, *i} for o, i in zip(g._out, g._in)])[0]
    d = 2 * dgen

    everything = frozenset(range(g.n))

    @cache
    def leaf_optimum(alive: frozenset, absorbed: frozenset) -> Optional[frozenset]:
        """Optimal completion of a leaf within the largest budget, or None.

        The DP runs once per ``(alive, absorbed)`` leaf, at the largest
        budget, on one contracted graph with the dead vertices' arcs
        dropped.  The DP caps its states at that budget, and no state
        at or below it depends on the cap, so its set, when it returns
        one, has the size of the leaf's optimum, and every budget
        reaching the leaf only compares that size.  Unless a dead
        vertex has an arc or absorbed vertices close a terminal cycle,
        its preprocessing hands back ``g`` and builds no graph.
        """
        inner = DstInstance(g, root, terminals | absorbed, inst.budget)
        inner2, inner_map, _ = preprocess_contract(inner, everything - alive)
        t0 = source_terminals(inner2.graph, inner2.terminals)
        sol = dst_exact_subset(inner2.graph, inner2.root, inner2.terminals, t0, inst.budget)
        if sol is None:
            return None
        return _lift(inner_map, inner.terminals, sol)

    nodes_per_budget = []
    solution = None
    limit = 1  # (d+1)^(budget*(d+1)), one factor more per budget
    for budget in range(inst.budget + 1):
        nodes = 0
        found = None
        # children: the absorptions, then the deletion
        stack = [(everything, frozenset(), budget)]
        while stack:
            alive, absorbed, k_rem = stack.pop()
            nodes += 1
            if nodes > limit:
                raise InternalInvariantError(
                    f"recursion grew past (d+1)^(k(d+1)) at budget {budget}"
                )
            t_all = terminals | absorbed  # all alive: deletions remove only dominators
            sources = source_terminals(g, t_all)
            dominated = set()
            for x in absorbed | {root}:
                dominated.update(w for w in g.out_neighbors(x) if w in alive)
            t_bar = frozenset(t for t in sources if t not in dominated)
            if k_rem == 0 and t_bar:
                continue  # every undominated source needs a fresh non-terminal
            # how many sources in t_bar each alive non-terminal dominates
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
                continue
            if not s_high:
                extra = leaf_optimum(alive, absorbed)
                if extra is not None and len(extra) <= k_rem:
                    found = absorbed | extra
                    break
                continue
            v = min(
                t_high,
                key=lambda t: (sum(1 for u in g.in_neighbors(t) if u in s_high), t),
            )
            dominators = sorted(u for u in g.in_neighbors(v) if u in s_high)
            stack.append((alive - frozenset(dominators), absorbed, k_rem))
            if k_rem >= 1:
                stack += [(alive, absorbed | {cand}, k_rem - 1) for cand in reversed(dominators)]
        nodes_per_budget.append(nodes)
        limit *= (d + 1) ** (d + 1)
        if found is not None:
            solution = _lift(mapping, inst.terminals, found)
            if not dst_valid(inst.graph, inst.root, inst.terminals, solution):
                raise InternalInvariantError("branching solver returned an invalid set")
            break
    return DstFptResult(
        solution=solution,
        degree_threshold=d,
        scc_diameter=s,
        nodes_per_budget=tuple(nodes_per_budget),
    )


# ---------------------------------------------------------------------------
# strongly connected Steiner subgraph


def scss_2approx(g: Digraph, terminals, budget: int) -> Optional[frozenset]:
    """Factor-2 approximation for the strongly connected Steiner subgraph.

    Solves two Steiner instances, one on g and one on its reverse, both
    rooted at a fixed terminal, and returns the union.  The output always
    induces a strongly connected subgraph together with the terminals.

    Contracting the terminals' strongly connected components commutes
    with reversal, so it is done once: the forward run solves the
    reduced instance and the backward run its reverse, whose one
    underlying graph gives both the same degeneracy (peeled once).
    Both solutions map back through the one mapping.
    """
    term = frozenset(terminals)
    if not term:
        raise ValueError("at least one terminal is required")
    anchor = min(term)
    reduced, mapping, _ = preprocess_contract(DstInstance(g, anchor, term - {anchor}, budget))
    fwd = dst_fpt(reduced)
    if fwd.solution is None:
        return None
    bwd = dst_fpt(DstInstance(reduced.graph.reverse(), reduced.root, reduced.terminals, budget),
                  _degeneracy=fwd.degree_threshold // 2)
    if bwd.solution is None:
        return None
    union = _lift(mapping, term, fwd.solution | bwd.solution)
    if not verify_strongly_connected(g, term | union):
        raise InternalInvariantError("SCSS union is not strongly connected")
    return union


# ---------------------------------------------------------------------------
# instance files


def format_dst_instance(inst: DstInstance, comments=()) -> str:
    parts = [format_digraph(inst.graph, comments=comments).rstrip("\n")]
    parts.append(f"root {inst.root}")
    parts.extend(f"terminal {t}" for t in sorted(inst.terminals))
    parts.append(f"budget {inst.budget}")
    return "\n".join(parts) + "\n"


def parse_dst_instance(text: str) -> DstInstance:
    """Parse a digraph file followed (or interleaved) by one ``root r``
    line, ``terminal t`` lines and one ``budget k`` line.  The graph is
    checked first, then the keyword lines in file order; a second root or
    budget line is rejected, not read over the first."""
    graph_lines = []
    keyed = []
    for ln in _content_lines(text):
        # only a line starting with r, t or b can be a keyword line
        if ln[0] in "rtb" and (parts := ln.split())[0] in ("root", "terminal", "budget"):
            keyed.append((ln, parts))
        else:
            graph_lines.append(ln)
    g = parse_digraph(graph_lines)
    single: dict[str, int] = {}  # the root and the budget, each given once
    terminals = set()
    for ln, parts in keyed:
        if len(parts) != 2:
            raise ValueError(f"bad instance line: {ln!r}")
        key, value = parts
        if key == "terminal":
            terminals.add(int(value))
        elif key in single:
            raise ValueError(f"repeated instance line: {ln!r}")
        else:
            single[key] = int(value)
    if len(single) != 2:
        raise ValueError("instance file needs root and budget lines")
    return DstInstance(g, single["root"], frozenset(terminals), single["budget"])
