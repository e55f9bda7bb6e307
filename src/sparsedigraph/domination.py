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
stitches the result together with shortest paths through v.
"""
from __future__ import annotations

import heapq
from functools import cache
from typing import Iterable, Optional, Sequence

from .digraph import Digraph, _bfs_each, _walk_back, in_distances
from .errors import (InfeasibleError, InternalInvariantError, SizeCapError, _check_cap,
                     _check_radius, _check_vertices)
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


def _greedy_hitting_set(members: list[frozenset], blues: list[int]) -> frozenset:
    """Deterministic greedy set cover over the blue candidates.

    Each step picks the blue vertex hitting the most sets not yet hit,
    ties broken towards the smallest index, and raises InfeasibleError
    when no blue vertex hits a remaining set.  This is the lazy greedy of
    Minoux (1978): an inverted index lists the sets each blue vertex
    hits, live gain counts drop as sets get hit, and a max-heap keeps
    possibly stale ``(-gain, b)`` entries.  Gains only fall, so an entry
    that matches its vertex's live gain when it reaches the top is the
    exact ``max(blues, key=(gain, -b))`` of a full rescan, and the picks
    are the same.  Costs O(sum of |members| + heap pushes * log |blues|),
    with at most one push per gain decrement.
    """
    hits: dict[int, list[int]] = {b: [] for b in blues}
    for i, m in enumerate(members):
        for x in m:
            if x in hits:
                hits[x].append(i)
    gain = {b: len(sets) for b, sets in hits.items()}
    heap = [(-gain[b], b) for b in hits if gain[b]]
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
                    if x in gain:
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
    if r < 1:
        raise ValueError("radius must be at least 1")
    reds = sorted(set(red))
    blues = sorted(set(blue))
    _check_vertices(g.n, reds + blues)
    if not reds:
        return frozenset()
    blue_set = frozenset(blues)
    members = []
    for v, ball in zip(reds, _bfs_each(g._in, reds, r)):
        trace = blue_set.intersection(ball)
        if not trace:
            raise InfeasibleError(f"red vertex {v} is not blue-dominated at radius {r}")
        members.append(trace)
    members = list(set(members))

    result = _greedy_hitting_set(members, blues)
    if not verify_dominating(g, result, r, reds) or not result <= blue_set:
        raise InternalInvariantError("red-blue approximation produced an invalid set")
    return result


# ---------------------------------------------------------------------------
# strongly connected distance-r dominating sets

# largest all-pairs distance table, n^2 cells, that scds_approx builds
MAX_SCDS_TABLE_CELLS = 1 << 22


def scds_approx(g: Digraph, r: int, stats_out: Optional[dict] = None) -> frozenset:
    """Strongly connected set dominating every vertex within distance r.

    Tries radii k = 1, 2, ... and every center; the best (smallest)
    validated answer at the first feasible radius is returned.  When a
    dict is passed as ``stats_out`` it receives that radius as
    ``k_guess`` and the center as ``center`` (both None on the empty
    graph).  A strongly connected graph whose distance table would have
    more than ``MAX_SCDS_TABLE_CELLS`` cells raises SizeCapError before
    the table is built.  A radius below 1 raises ValueError first.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    if g.n == 0:
        if stats_out is not None:
            stats_out.update(k_guess=None, center=None)
        return frozenset()
    if not verify_strongly_connected(g, range(g.n)):
        raise InfeasibleError("graph is not strongly connected")
    if g.n * g.n > MAX_SCDS_TABLE_CELLS:
        raise SizeCapError(f"scds_approx: {g.n}^2 = {g.n * g.n} distance table cells"
                           f" exceed cap {MAX_SCDS_TABLE_CELLS}")

    dist_from = list(_bfs_each(g._out, range(g.n)))
    # discovery ranks of the tables walked
    rank_from = cache(lambda src: {x: i for i, x in enumerate(dist_from[src])})

    best: Optional[frozenset] = None
    best_center = None
    for k in range(1, g.n + 1):
        for center in range(g.n):
            ball = frozenset(
                u for u in range(g.n)
                if dist_from[center].get(u, g.n + 1) <= k
                and dist_from[u].get(center, g.n + 1) <= k
            )
            try:
                core = redblue_dominate_approx(g, range(g.n), ball, r)
            except InfeasibleError:
                continue
            stitched = set(core) | {center}
            for w in sorted(core):
                for src, v in ((center, w), (w, center)):
                    stitched.update(_walk_back(g, dist_from[src], rank_from(src), v))
            result = frozenset(stitched)
            if not verify_dominating(g, result, r):
                raise InternalInvariantError("stitched dominator lost coverage")
            if not verify_strongly_connected(g, result):
                raise InternalInvariantError("stitched dominator is not strongly connected")
            if best is None or len(result) < len(best):
                best = result
                best_center = center
        if best is not None:
            if stats_out is not None:
                stats_out["k_guess"] = k
                stats_out["center"] = best_center
            return best
    raise InternalInvariantError("no radius produced a feasible ball")
