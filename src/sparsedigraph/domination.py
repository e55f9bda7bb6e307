"""Distance profiles, neighborhood complexity, distance-r VC dimension,
and the two dominating set approximations.

The red-blue approximation is the greedy set cover of the reds' in-ball
traces on the blue set.  Greedy is within H(|R|) <= ln|R| + 1 of the
optimum k (Johnson 1974), at most 14.4 for the n <= 10^6 vertices the
parser accepts.  The paper's O(log k) bound comes instead from ε-nets of
a family with VC bound δ (Brönnimann and Goodrich 1995): a net certified
at optimum k takes ceil(16δk·ln(16δk)) draws, and the wcol order gives
δ = (r+2)(2c)² >= 4(r+2) >= 12, so at least 1009k draws.  The greedy
cover, at most 14.4k vertices, therefore meets every bound a net could
certify, and no net engine runs.
Every output is validated before it is returned.

The strongly connected variant guesses a center v and a radius k, colors
the strong k-ball of v blue, finds a red-blue dominator inside it, and
stitches the result together with shortest paths through v.  It keeps
no all-pairs table: see ``scds_approx`` for its per-center pass.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .digraph import Digraph, _bfs, _bfs_each, _walk_back, in_distances
from .errors import (InfeasibleError, InternalInvariantError, _check_cap, _check_radius,
                     _check_vertices)
from .oracles import verify_dominating, verify_strongly_connected

UNREACHED = None  # distance-vector entry for "further than r"


def distance_vector(g: Digraph, v: int, anchors: Sequence[int], r: int) -> tuple:
    """Distances from each anchor to v, entries beyond r replaced by None."""
    _check_vertices(g.n, (v, *anchors))
    dist = in_distances(g, v, cap=r)
    return tuple(dist.get(a, UNREACHED) for a in anchors)


def neighborhood_complexity(g: Digraph, subset: Iterable[int], r: int) -> int:
    """Number of distinct traces N_r^-(v) & subset over all vertices."""
    _check_radius(r)
    s = frozenset(subset)
    _check_vertices(g.n, s)
    return len({s.intersection(ball) for ball in _bfs_each(g._in, range(g.n), r)})


def vc_dimension_distance_r(g: Digraph, r: int,
                            max_n: int = 20) -> tuple[int, frozenset]:
    """Largest set shattered by the r-in-neighborhood family, with witness.

    Level-wise search: a set can only be shattered if all its subsets
    are, so candidates grow one element at a time.
    """
    _check_radius(r)
    _check_cap("vc_dimension_distance_r", g.n, max_n)
    family = set(map(frozenset, _bfs_each(g._in, range(g.n), r)))

    def shattered(x: frozenset) -> bool:
        traces = {f & x for f in family}
        return len(traces) == 1 << len(x)

    best: frozenset = frozenset()
    layer = [frozenset()]
    while layer:
        nxt = []
        for x in layer:
            top = max(x) if x else -1
            for v in range(top + 1, g.n):
                cand = x | {v}
                if shattered(cand):
                    nxt.append(cand)
        if not nxt:
            break
        best = nxt[0]
        layer = nxt
    return len(best), best


# ---------------------------------------------------------------------------
# red-blue approximation


def _greedy_hitting_set(members: list[frozenset], n: int) -> frozenset:
    """Deterministic greedy set cover over the vertices named in members.

    Every vertex named in a member is a candidate and lies in 0..n-1; a
    caller restricts the candidates by intersecting the members first.
    Each step picks the vertex hitting the most sets not yet hit, ties
    broken towards the smallest index, and raises InfeasibleError when
    no vertex hits a remaining set (an empty member).  This is the lazy
    greedy of Minoux (1978): an inverted index lists the sets each
    vertex hits, live gain counts drop as sets get hit, and a max-heap
    keeps possibly stale ``(-gain, b)`` entries.  Gains only fall, so an
    entry that matches its vertex's live gain when it reaches the top is
    the exact ``max(key=(gain, -b))`` of a full rescan, and the picks
    are the same.  Costs O(n + sum of |members| + heap pushes * log n),
    with at most one push per gain decrement.
    """
    hits: list[list[int]] = [[] for _ in range(n)]
    for i, m in enumerate(members):
        for x in m:
            hits[x].append(i)
    gain = list(map(len, hits))
    heap = [(-c, b) for b, c in enumerate(gain) if c]
    heapq.heapify(heap)
    alive = [True] * len(members)
    remaining = len(members)
    chosen: set[int] = set()
    while remaining:
        if not heap:
            raise InfeasibleError("greedy cover stalled: some set has no blue member")
        neg, b = heapq.heappop(heap)
        if -neg != gain[b]:
            if gain[b]:
                heapq.heappush(heap, (-gain[b], b))
            continue
        chosen.add(b)
        for i in hits[b]:
            if alive[i]:
                alive[i] = False
                remaining -= 1
                for x in members[i]:
                    gain[x] -= 1
    return frozenset(chosen)


def redblue_dominate_approx(g: Digraph, red: Iterable[int], blue: Iterable[int],
                            r: int) -> frozenset:
    """Blue set dominating every red vertex within distance r.

    The greedy cover of the reds' in-ball traces on the blue set; see the
    module docstring for its bound.  Raises ValueError for a radius
    below 1 or a vertex out of range, and InfeasibleError when even the
    whole blue set fails.
    """
    _check_radius(r, least=1)
    reds = sorted(set(red))
    blue_set = frozenset(blue)
    _check_vertices(g.n, reds + sorted(blue_set))
    if not reds:
        return frozenset()
    return _redblue_cover(g, reds, blue_set, _bfs_each(g._in, reds, r), r)


def _redblue_cover(g: Digraph, reds: Sequence[int], blue_set: frozenset,
                   balls: Iterable, r: int) -> frozenset:
    """``redblue_dominate_approx`` once the reds' r-in-balls, ``balls`` in
    the order of ``reds``, are known; ``scds_approx`` holds them already."""
    members = []
    for v, ball in zip(reds, balls):
        trace = blue_set.intersection(ball)
        if not trace:
            raise InfeasibleError(f"red vertex {v} is not blue-dominated at radius {r}")
        members.append(trace)
    members = list(set(members))

    result = _greedy_hitting_set(members, g.n)
    if not verify_dominating(g, result, r, reds) or not result <= blue_set:
        raise InternalInvariantError("red-blue approximation produced an invalid set")
    return result


# ---------------------------------------------------------------------------
# strongly connected distance-r dominating sets


def scds_approx(g: Digraph, r: int, stats_out: Optional[dict] = None) -> frozenset:
    """Strongly connected set dominating every vertex within distance r.

    A center c is feasible at radius k when its strong k-ball, the u with
    d(c,u) <= k and d(u,c) <= k, meets every r-in-ball, so its first
    feasible radius is k_c = max(1, max over v of min over u in B_r^-(v)
    of max(d(c,u), d(u,c))).  Per center, an out-search and an in-search
    capped at the least k_c so far, K, and a pass over the in-balls that
    stops once it passes K give k_c.  Red-blue on the strong K-ball, fed
    the same in-balls, and the stitch then run for the centers with
    k_c = K, in center order; the smallest validated answer, the first on
    ties, is returned, and ``stats_out`` (if given) receives K as
    ``k_guess`` and its center as ``center`` (both None on the empty
    graph).  A radius below 1 raises ValueError first.

    The stitch joins each dominator w to c by the paths ``shortest_path``
    returns: c -> w walked back on c's out-table, and w -> c on a search
    from w along the arcs one step closer to c.  Those arcs hold exactly
    the shortest w -> c paths, whose vertices a full search from w finds
    in the same order.  Time is O(n (n + m + sum of |B_r^-(v)|)); memory
    is O(n + m + sum of |B_r^-(v)|): the in-balls, one center's tables.
    """
    _check_radius(r, least=1)
    if g.n == 0:
        if stats_out is not None:
            stats_out.update(k_guess=None, center=None)
        return frozenset()
    if not verify_strongly_connected(g, range(g.n)):
        raise InfeasibleError("graph is not strongly connected")

    in_balls = [tuple(ball) for ball in _bfs_each(g._in, range(g.n), r)]
    least, centers = g.n, []  # the least k_c so far and the centers reaching it
    for c in range(g.n):
        to_c, = _bfs_each(g._in, (c,), least)
        from_c, = _bfs_each(g._out, (c,), least)
        strong = [g.n] * g.n  # max(d(c,u), d(u,c)), or n past the caps
        for u in from_c.keys() & to_c.keys():
            strong[u] = max(from_c[u], to_c[u])
        k_c = 1
        for ball in in_balls:
            k_c = max(k_c, min(map(strong.__getitem__, ball)))
            if k_c > least:
                break
        if k_c < least:
            least, centers = k_c, [c]
        elif k_c == least:
            centers.append(c)

    best = best_center = None
    for c in centers:
        to_c, = _bfs_each(g._in, (c,), least)
        from_c, = _bfs_each(g._out, (c,), least)
        # arcs one step closer to c: from w they span the shortest w -> c paths
        closer = lambda x: [y for y in g._out[x] if to_c.get(y) == to_c[x] - 1]
        core = _redblue_cover(g, range(g.n), frozenset(from_c.keys() & to_c.keys()), in_balls, r)
        stitched = set(core) | {c}
        if best is not None and len(stitched) >= len(best):
            continue  # the stitch only adds to core and c: no smaller answer
        rank = {x: i for i, x in enumerate(from_c)}
        for w in core:
            back = _bfs(closer, (w,))
            stitched.update(_walk_back(g, from_c, rank, w))
            stitched.update(_walk_back(g, back, {x: i for i, x in enumerate(back)}, c))
        result = frozenset(stitched)
        if not verify_dominating(g, result, r):
            raise InternalInvariantError("stitched dominator lost coverage")
        if not verify_strongly_connected(g, result):
            raise InternalInvariantError("stitched dominator is not strongly connected")
        if best is None or len(result) < len(best):
            best, best_center = result, c
            if len(best) == 1:
                break  # every answer holds its center, and ties keep the first
    if stats_out is not None:
        stats_out.update(k_guess=least, center=best_center)
    return best
