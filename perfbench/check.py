"""Independent checks of every job's output.

The searches here are the benchmark's own: bounded BFS over the generated
arc lists, never the package's traversal code.  Where the issue asks for
the package's brute-force oracles (``oracles.dst_valid``,
``oracles.dst_exact_enum``, ``oracles.gamma_r_exact``), they are used on
top of the benchmark's own checks, not instead of them.

Each check returns ``(error, quality)``: ``error`` is None when the output
is right, and ``quality`` holds the numbers the report aggregates.
"""
from __future__ import annotations

import heapq
from itertools import combinations
from typing import Optional

from sparsedigraph.digraph import Digraph
from sparsedigraph.oracles import dst_exact_enum, dst_valid, gamma_r_exact
from sparsedigraph.steiner_types import DstInstance

from gen import read_graph


def bounded_reach(adj, sources, r: int, allowed=None) -> set:
    """Vertices within r steps of ``sources`` along ``adj``.

    ``allowed(v)`` restricts the vertices a path may enter.
    """
    seen = set(sources)
    frontier = list(seen)
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen and (allowed is None or allowed(y)):
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# weak coloring orders


def wreach_sizes(g, order, r: int) -> list[int]:
    """|WReach_r[v]| for every v under ``order`` (order[0] is smallest)."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    out_adj, in_adj = g.out_adj(), g.in_adj()
    sizes = [0] * g.n
    for u in range(g.n):
        pu = pos[u]
        later = lambda w: pos[w] > pu  # noqa: E731
        reached = bounded_reach(out_adj, (u,), r, later)
        reached |= bounded_reach(in_adj, (u,), r, later)
        for w in reached:
            sizes[w] += 1
    return sizes


def degeneracy_order(g) -> list[int]:
    """Min-degree peel of the underlying graph, reversed; ties to the
    smallest index.  O(m log n) with a lazy heap."""
    neigh = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        neigh[u].add(v)
        neigh[v].add(u)
    deg = [len(s) for s in neigh]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * g.n
    peel = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        alive[v] = False
        peel.append(v)
        for u in neigh[v]:
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return peel[::-1]


def degree_order(g) -> list[int]:
    """Highest underlying degree first; ties to the smallest index."""
    neigh = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        neigh[u].add(v)
        neigh[v].add(u)
    return sorted(range(g.n), key=lambda v: (-len(neigh[v]), v))


def check_wcol(g, r: int, code: int, rep: Optional[dict]):
    if code != 0 or rep is None:
        return f"wcol exited {code}", {}
    order = rep.get("order", [])
    if sorted(order) != list(range(g.n)):
        return "order is not a permutation of the vertices", {}
    sizes = wreach_sizes(g, order, r)
    if rep.get("wreach_sizes") != sizes:
        return "reported |WReach| sizes differ from a recount", {}
    achieved = max(sizes, default=0)
    if rep.get("achieved") != achieved:
        return "achieved is not the largest |WReach|", {}
    if achieved > rep.get("guarantee", -1):
        return "achieved exceeds the certified guarantee", {}
    return None, {"achieved": achieved, "guarantee": rep["guarantee"]}


def reference_orders(g, r: int) -> dict:
    """max |WReach_r| of the plain degeneracy and degree-sorted orders."""
    return {
        "degeneracy": max(wreach_sizes(g, degeneracy_order(g), r), default=0),
        "degree": max(wreach_sizes(g, degree_order(g), r), default=0),
    }


# ---------------------------------------------------------------------------
# domination


def greedy_dominator(g, r: int) -> set:
    """A distance-r dominating set by plain greedy; an upper bound on gamma_r."""
    out_adj = g.out_adj()
    balls = [bounded_reach(out_adj, (v,), r) for v in range(g.n)]
    left = set(range(g.n))
    chosen = set()
    while left:
        v = max(range(g.n), key=lambda x: (len(balls[x] & left), -x))
        chosen.add(v)
        left -= balls[v]
    return chosen


def check_domset(g, r: int, red, blue, code: int, rep: Optional[dict],
                 optimum: Optional[int] = None):
    if code != 0 or rep is None:
        return f"domset exited {code}", {}
    sol = rep.get("solution", [])
    if not set(sol) <= set(blue):
        return "dominator outside the blue set", {}
    covered = bounded_reach(g.out_adj(), sol, r)
    if not set(red) <= covered:
        return "some red vertex is not dominated", {}
    if optimum is not None and len(sol) < optimum:
        return f"|D|={len(sol)} is below the known optimum {optimum}", {}
    quality = {"size": len(sol), "engine": rep.get("engine"),
               "k_guess": rep.get("k_guess")}
    if optimum is not None:
        quality["optimum"] = optimum
    return None, quality


def check_kernel(g, r: int, k: int, code: int, rep: Optional[dict],
                 greedy_size: int, kernel_path: Optional[str] = None):
    """Exit code, flag and budget consistency; at desk scale (when the
    kernel graph was written) decision preservation by exact gamma_r."""
    if code not in (0, 1) or rep is None:
        return f"kernel exited {code}", {}
    if rep.get("infeasible") != (code == 1):
        return "exit code disagrees with the infeasible flag", {}
    if rep.get("kernel_budget") != k + 1:
        return "kernel budget is not k+1", {}
    if rep["infeasible"] and greedy_size <= k:
        return f"refuted although a {greedy_size}-vertex dominator exists", {}
    if kernel_path is not None:
        kg = read_graph(kernel_path)
        if kg.n != rep.get("kernel_n"):
            return "kernel_n differs from the written kernel", {}
        orig_yes = gamma_r_exact(Digraph(g.n, g.arcs), r, max_n=g.n)[0] <= k
        kern_yes = gamma_r_exact(Digraph(kg.n, kg.arcs), r, max_n=kg.n)[0] <= k + 1
        if orig_yes != kern_yes or (rep["infeasible"] and orig_yes):
            return "kernel does not preserve the decision", {}
    return None, {"kernel_n": rep.get("kernel_n"), "core_rounds": rep.get("iterations")}


# ---------------------------------------------------------------------------
# Steiner


def _dst_reaches(out_adj, root, terminals, solution) -> bool:
    inside = set(solution) | set(terminals) | {root}
    return set(terminals) <= bounded_reach(out_adj, (root,), len(out_adj),
                                           inside.__contains__)


def planted_optimum(host) -> Optional[int]:
    """Exact DST optimum from the host's structure, or None if unknown.

    Every path into a terminal leaves the non-terminals through an
    in-neighbour of the terminal set, so a solution needs a subset of
    those in-neighbours whose arcs, closed under terminal arcs, reach all
    terminals.  That size is a lower bound, and a covering subset of that
    size that is itself a valid solution meets it.
    """
    g = host.graph
    out_adj = g.out_adj()
    terms = set(host.terminals)
    entry = sorted({u for u, v in g.arcs if v in terms and u not in terms
                    and u != host.root})
    if len(entry) > 12:
        return None
    direct = {v for v in out_adj[host.root] if v in terms}
    for size in range(len(entry) + 1):
        covering = []
        for xs in combinations(entry, size):
            hit = direct | {v for x in xs for v in out_adj[x] if v in terms}
            if bounded_reach(out_adj, hit, len(terms), terms.__contains__) >= terms:
                covering.append(xs)
        if covering:
            valid = any(_dst_reaches(out_adj, host.root, terms, xs) for xs in covering)
            return size if valid else None
    return None


def check_dst(host, budget: int, code: int, rep: Optional[dict],
              optimum: Optional[int], exact: bool = False):
    if code not in (0, 1) or rep is None:
        return f"dst exited {code}", {}
    g = host.graph
    terms = frozenset(host.terminals)
    sol = rep.get("solution")
    if code == 0:
        if sol is None or set(sol) & (terms | {host.root}):
            return "solution missing or contains a terminal", {}
        if len(sol) > budget:
            return "solution exceeds the budget", {}
        if not _dst_reaches(g.out_adj(), host.root, terms, sol):
            return "root does not reach every terminal", {}
        if not dst_valid(Digraph(g.n, g.arcs), host.root, terms, sol):
            return "oracles.dst_valid rejects the solution", {}
        if optimum is not None and len(sol) != optimum:
            return f"|S|={len(sol)} is not the optimum {optimum}", {}
    elif optimum is not None and optimum <= budget:
        return f"reported infeasible although the optimum is {optimum}", {}
    if exact:
        inst = DstInstance(Digraph(g.n, g.arcs), host.root, terms, budget)
        ref = dst_exact_enum(inst, max_n=g.n, max_k=budget)
        if (ref is None) != (code == 1) or (ref is not None and len(ref) != len(sol)):
            return "disagrees with oracles.dst_exact_enum", {}
    return None, {"nodes": sum(rep.get("nodes_expanded", []))}


def check_scss(host, budget: int, code: int, rep: Optional[dict]):
    if code not in (0, 1) or rep is None:
        return f"scss exited {code}", {}
    g = host.graph
    out_adj, in_adj = g.out_adj(), g.in_adj()
    terms = set(host.terminals) | {host.root}

    def strongly_connected(sol) -> bool:
        inside = terms | set(sol)
        start = min(inside)
        return (bounded_reach(out_adj, (start,), g.n, inside.__contains__) == inside
                and bounded_reach(in_adj, (start,), g.n, inside.__contains__) == inside)

    if code == 0:
        sol = rep.get("solution")
        if sol is None or set(sol) & terms:
            return "solution missing or contains a terminal", {}
        if len(sol) > 2 * budget:
            return "solution exceeds twice the budget", {}
        if not strongly_connected(sol):
            return "terminals plus solution are not strongly connected", {}
        return None, {"size": len(sol)}
    # hubs plus the return vertex are a solution, so both rooted
    # sub-instances fit the budget whenever that set does
    planted = list(host.hubs) + [host.back]
    if len(planted) <= budget and strongly_connected(planted):
        return "reported infeasible although the planted set fits", {}
    return None, {}
