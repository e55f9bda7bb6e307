"""Brute-force reference implementations and validators.

Everything here is an independent ground truth for the acceptance tests:
exact minimum dominators, exact maximum scattered sets, exact Steiner
solutions by enumeration, and the direct definition checks used as
postcondition guards by the approximation and FPT solvers.  Nothing in
this module shares code with the algorithms it checks; only the digraph
primitives are used.

The exact searches are branch-and-bound rather than flat subset
enumeration so that structured instances (for example apex crowns with
around 80 vertices) stay within seconds, but they remain exhaustive.
Caps default to desk scale; pass ``max_n`` explicitly to go past them
(slow).
"""
from __future__ import annotations

from math import ceil, comb
from typing import Iterable, Optional

from .digraph import Digraph, _bfs, _bfs_each, _bits, in_ball, out_ball
from .errors import SizeCapError, _check_cap, _check_radius, _check_vertices
from .steiner_types import DstInstance


def _cover_masks(g: Digraph, r: int, targets: list[int]) -> list[int]:
    """cover_masks[v] = bitmask over ``targets`` of N_r^+(v) intersected;
    the callers check r."""
    pos = {t: i for i, t in enumerate(targets)}
    masks = []
    for ball in _bfs_each(g._out, range(g.n), r):
        mask = 0
        for u in ball:
            if u in pos:
                mask |= 1 << pos[u]
        masks.append(mask)
    return masks


def gamma_r_exact(g: Digraph, r: int, targets: Optional[Iterable[int]] = None,
                  max_n: int = 16) -> tuple[int, frozenset]:
    """Exact minimum-size D with targets contained in N_r^+(D).

    ``targets`` defaults to the whole vertex set (the classic distance-r
    dominating set).  Returns (size, witness).
    """
    _check_radius(r)
    _check_cap("gamma_r_exact", g.n, max_n)
    tgt = sorted(set(range(g.n) if targets is None else targets))
    if not tgt:
        return 0, frozenset()
    _check_vertices(g.n, tgt)
    masks = _cover_masks(g, r, tgt)
    full = (1 << len(tgt)) - 1
    order = sorted(range(g.n), key=lambda v: (-bin(masks[v]).count("1"), v))

    # greedy upper bound; each target covers itself, so every step covers one
    best: list[int] = []
    uncovered = full
    while uncovered:
        v = max(range(g.n), key=lambda x: (bin(masks[x] & uncovered).count("1"), -x))
        best.append(v)
        uncovered &= ~masks[v]
    stack = [(full, ())]
    while stack:
        uncovered, chosen = stack.pop()
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            continue
        biggest = max(bin(masks[v] & uncovered).count("1") for v in order)
        lb = len(chosen) + ceil(bin(uncovered).count("1") / biggest)
        if lb >= len(best):
            continue
        # branch on the hardest uncovered target
        pick, fewest = -1, None
        for i in range(len(tgt)):
            if uncovered >> i & 1:
                cnt = sum(1 for v in order if masks[v] >> i & 1)
                if fewest is None or cnt < fewest:
                    pick, fewest = i, cnt
        coverers = [v for v in order if masks[v] >> pick & 1]
        coverers.sort(key=lambda v: (-bin(masks[v] & uncovered).count("1"), v))
        stack += [(uncovered & ~masks[v], chosen + (v,)) for v in reversed(coverers)]
    return len(best), frozenset(best)


def alpha_r_exact(g: Digraph, r: int, max_n: int = 16) -> tuple[int, frozenset]:
    """Exact maximum r-scattered vertex set.

    A set is r-scattered when no single vertex has two of its members in
    its r-out-ball, i.e. members have pairwise disjoint r-in-balls.
    """
    _check_radius(r)
    _check_cap("alpha_r_exact", g.n, max_n)
    n = g.n
    conflict = [0] * n  # conflict[i] has i and every j that shares an r-out-ball with it
    for mask in _cover_masks(g, r, list(range(n))):
        for i in _bits(mask):
            conflict[i] |= mask

    # children: take the lowest available vertex, then leave it out
    best: tuple = ()
    stack = [((1 << n) - 1, ())]
    while stack:
        avail, chosen = stack.pop()
        if len(chosen) + bin(avail).count("1") <= len(best):
            continue
        if avail == 0:
            best = chosen
            continue
        i = (avail & -avail).bit_length() - 1
        stack.append((avail & ~(1 << i), chosen))
        stack.append((avail & ~(conflict[i] | (1 << i)), chosen + (i,)))
    return len(best), frozenset(best)


# ---------------------------------------------------------------------------
# validators (direct definition checks, no caps)


def verify_dominating(g: Digraph, dominators: Iterable[int], r: int,
                      targets: Optional[Iterable[int]] = None) -> bool:
    """True when every target lies in some dominator's r-out-ball.

    One search from all the dominators at once finds the union of their
    r-out-balls: O(n + m) at most, and never stopped early.  A dominator
    outside ``0..n-1`` raises ValueError; a target there is never
    dominated.
    """
    _check_radius(r)
    dominators = set(dominators)
    _check_vertices(g.n, dominators)
    reached = _bfs(g.out_neighbors, dominators, r)
    return reached.keys() >= set(range(g.n) if targets is None else targets)


def verify_scattered(g: Digraph, vertices: Iterable[int], r: int) -> bool:
    """True when the members have pairwise disjoint r-in-balls.

    Keeps the union of the balls seen so far, so it costs O(sum of the
    ball sizes) instead of one intersection per pair.  A member outside
    ``0..n-1`` raises ValueError.
    """
    _check_radius(r)
    vertices = set(vertices)
    _check_vertices(g.n, vertices)
    union: set = set()
    for ball in _bfs_each(g._in, vertices, r):
        if not union.isdisjoint(ball):
            return False
        union.update(ball)
    return True


def verify_strongly_connected(g: Digraph, vertices: Iterable[int]) -> bool:
    """True when the induced subgraph on ``vertices`` is strongly connected.

    Empty and singleton sets count as strongly connected.  A vertex
    outside ``0..n-1`` raises ValueError.
    """
    vs = frozenset(vertices)
    _check_vertices(g.n, vs)
    if len(vs) <= 1:
        return True
    start = min(vs)
    reach_out = out_ball(g, start, g.n, within=vs)
    reach_in = in_ball(g, start, g.n, within=vs)
    return reach_out == vs and reach_in == vs


def dst_valid(g: Digraph, root: int, terminals: frozenset, solution: Iterable[int]) -> bool:
    """True when root reaches every terminal inside G[{root} | T | S].
    A vertex outside ``0..n-1`` raises ValueError, the root first."""
    allowed = frozenset(solution) | terminals | {root}
    _check_vertices(g.n, (root, *allowed))
    return terminals <= out_ball(g, root, g.n, within=allowed)


# ---------------------------------------------------------------------------
# enumeration oracles


def _subsets_ascending(pool: list[int], max_size: int):
    from itertools import combinations

    for size in range(max_size + 1):
        yield from combinations(pool, size)


def dst_exact_enum(inst: DstInstance, max_n: int = 12, max_k: int = 4) -> Optional[frozenset]:
    """Minimum Steiner solution by enumerating S in increasing size.

    Returns the lexicographically first minimum set of non-terminals, or
    None when no solution of size <= k exists.
    """
    g = inst.graph
    _check_cap("dst_exact_enum", g.n, max_n)
    if inst.budget > max_k:
        raise SizeCapError(f"dst_exact_enum: budget {inst.budget} exceeds cap {max_k}")
    pool = [v for v in range(g.n)
            if v != inst.root and v not in inst.terminals]
    for s in _subsets_ascending(pool, inst.budget):
        if dst_valid(g, inst.root, inst.terminals, s):
            return frozenset(s)
    return None


def scss_exact_enum(g: Digraph, terminals: Iterable[int], budget: int,
                    max_n: int = 12) -> Optional[frozenset]:
    """Minimum S with G[T | S] strongly connected, by enumeration."""
    _check_cap("scss_exact_enum", g.n, max_n)
    term = frozenset(terminals)
    _check_vertices(g.n, term)
    pool = [v for v in range(g.n) if v not in term]
    for s in _subsets_ascending(pool, min(budget, len(pool))):
        if verify_strongly_connected(g, term | set(s)):
            return frozenset(s)
    return None


# most blue subsets redblue_exact_enum tries: those of up to 4 of 71 blues
MAX_REDBLUE_SUBSETS = 1 << 20


def redblue_exact_enum(g: Digraph, red: Iterable[int], blue: Iterable[int], r: int,
                       max_k: int = 4) -> Optional[frozenset]:
    """Minimum D inside blue with red contained in N_r^+(D), by enumeration.

    The blue subsets of up to ``max_k`` vertices are counted first; more
    than ``MAX_REDBLUE_SUBSETS`` of them raises SizeCapError.
    """
    _check_radius(r)
    reds = sorted(set(red))
    blues = sorted(set(blue))
    _check_vertices(g.n, reds + blues)
    if not reds:
        return frozenset()
    k = min(max_k, len(blues))
    subsets = sum(comb(len(blues), i) for i in range(k + 1))
    if subsets > MAX_REDBLUE_SUBSETS:
        raise SizeCapError(f"redblue_exact_enum: {subsets} blue subsets of up to {max_k}"
                           f" vertices exceed cap {MAX_REDBLUE_SUBSETS}")
    masks = _cover_masks(g, r, reds)
    full = (1 << len(reds)) - 1
    for s in _subsets_ascending(blues, k):
        acc = 0
        for v in s:
            acc |= masks[v]
        if acc == full:
            return frozenset(s)
    return None
