"""Weak reachability, weak coloring numbers, admissibility, and the
transitive fraternal augmentation pipeline that extracts good orders.

A vertex u is weakly r-reachable from v with respect to a linear order L
when some directed path of length at most r, running from u to v or from
v to u, has u as its L-smallest vertex.  wcol_r(G) minimizes over all
orders the largest weak-reachability set; its limit wcol_n(G) plays the
role tree-depth plays for undirected graphs.

The augmentation pipeline is the constructive route to a good order:
re-orient the arcs with small out-degree, then close fraternal and
transitive patterns layer by layer, and finally peel the union graph.
The resulting order comes with the certified guarantee (d+1)c + 1 where
d is the union's max out-degree and c its peel degeneracy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .digraph import (Digraph, LinearOrder, _adjacency_masks, _bfs_each, _bits, _mask_reach,
                      _peel_lists, _smallest_last)
from .errors import (InternalInvariantError, SizeCapError, _check_cap, _check_radius,
                     _check_vertices)


# ---------------------------------------------------------------------------
# weak reachability


def wreach_all(g: Digraph, order: LinearOrder, r: int) -> tuple[frozenset, ...]:
    """Weak-r-reachability sets for every vertex at once.

    Walking the order, two bounded searches run from each u, one along
    the arcs and one against them (``_bfs_each`` with the order's
    positions as ranks).  They enter only L-larger vertices, so they find
    everything u weakly reaches; u is then recorded in those sets.  The
    cost is O(sum of the r-balls searched), not O(n) per vertex, with one
    position test and one table test per arc scanned.
    """
    if len(order) != g.n:
        raise ValueError("order size does not match the graph")
    _check_radius(r)
    result = [{v} for v in range(g.n)]
    seq, pos = order.seq, order._pos
    for u, along, against in zip(seq, _bfs_each(g._out, seq, r, pos),
                                 _bfs_each(g._in, seq, r, pos)):
        for w in along:
            result[w].add(u)
        for w in against:
            result[w].add(u)
    return tuple(frozenset(s) for s in result)


def wcol_of_order(g: Digraph, order: LinearOrder, r: int) -> int:
    """max_v |WReach_r[v]| for a fixed order."""
    return max(map(len, wreach_all(g, order, r)), default=0)


def wcol_exact(g: Digraph, r: int, max_n: int = 9) -> tuple[int, LinearOrder]:
    """Exact wcol_r with a witness order, by pruned search over all orders.

    Orders are built smallest-position first; once a vertex is placed its
    weak-reachability count is final, which gives the lower bound used
    for pruning.
    """
    _check_radius(r)
    _check_cap("wcol_exact", g.n, max_n)
    n = g.n
    if n == 0:
        return 0, LinearOrder([])
    out_mask, in_mask = _adjacency_masks(g)

    @cache
    def reach(u: int, allowed: int) -> int:
        """Vertices != u reachable from u (either direction) within r steps
        using only ``allowed`` vertices."""
        start = 1 << u
        both = _mask_reach(out_mask, start, allowed, r) | _mask_reach(in_mask, start, allowed, r)
        return both & ~start

    heuristic = _smallest_last([g.underlying_neighbors(v) for v in range(g.n)])[1]
    best = wcol_of_order(g, heuristic, r)
    best_order: LinearOrder = heuristic

    # an entry is a step: place u next after ``seq``; counts[w] is w's
    # weak-reachability count so far
    start = (1 << n) - 1
    stack = [(start, 1, [1] * n, (), u) for u in reversed(range(n))]
    while stack:
        unplaced, max_placed, counts, seq, u = stack.pop()
        new_max = max(max_placed, counts[u])
        if new_max >= best:
            continue
        counts = counts[:]
        for w in _bits(reach(u, unplaced)):
            counts[w] += 1
        # every still-unplaced count is a lower bound on the final value
        rest = unplaced & ~(1 << u)
        if any(counts[w] >= best for w in _bits(rest)):
            continue
        seq += (u,)
        if not rest:
            best, best_order = new_max, LinearOrder(seq)
        stack += [(rest, new_max, counts, seq, w) for w in reversed(list(_bits(rest)))]
    return best, best_order


def wcol_infty_exact(g: Digraph, max_n: int = 9) -> tuple[int, LinearOrder]:
    return wcol_exact(g, g.n, max_n=max_n)


# ---------------------------------------------------------------------------
# admissibility


def _bounded_paths(adj, start: int, stop, limit: int):
    """Yield (inner vertices, end) for each simple path of at most ``limit``
    arcs that leaves ``start`` along ``adj`` and ends at its first vertex in
    ``stop``: the inner vertices, a tuple in path order, avoid ``stop``, and
    no path returns to ``start``."""
    stack = [(start, ())] if limit >= 1 else []
    while stack:
        x, inner = stack.pop()
        for y in adj(x):
            if y == start or y in inner:
                continue
            if y in stop:
                yield inner, y
            elif len(inner) + 1 < limit:
                stack.append((y, inner + (y,)))


def _adm_candidates(g: Digraph, v: int, smaller: frozenset, r: int) -> list[frozenset]:
    """Inclusion-minimal non-v vertex sets of admissibility paths at v.

    Paths run from v in either orientation, keep internal vertices outside
    ``smaller`` and stop at the first vertex inside it; truncating at the
    first smaller vertex loses no packing.
    """
    return _inclusion_minimal({frozenset(inner + (end,))
                               for adj in (g.out_neighbors, g.in_neighbors)
                               for inner, end in _bounded_paths(adj, v, smaller, r)})


def _inclusion_minimal(found: set[frozenset]) -> list[frozenset]:
    """The members of ``found`` that contain no other member, smallest
    first, equal sizes ordered by their sorted elements.  A member is
    tested only against the kept ones that share a vertex with it, so
    pairwise disjoint members cost linear time."""
    if frozenset() in found:
        return [frozenset()]  # it lies inside every other member
    minimal: list[frozenset] = []
    holders: dict[int, list[frozenset]] = {}  # vertex -> the kept members holding it
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        if holders.keys().isdisjoint(s) or not any(
                t <= s for x in s for t in holders.get(x, ())):
            minimal.append(s)
            for x in s:
                holders.setdefault(x, []).append(s)
    return minimal


def _max_disjoint(groups: list[list[frozenset]]) -> int:
    """Most groups that each give one member, the chosen members pairwise
    disjoint.  Admissibility passes one-member groups, ``minors.top_grad``
    one group of paths per principal pair.  Depth-first over (next group,
    vertices used, groups given) nodes: each of the group's members that
    avoids the used vertices, then skipping the group."""
    best = 0
    stack = [(0, frozenset(), 0)]
    while stack:
        idx, used, cnt = stack.pop()
        if cnt + (len(groups) - idx) <= best:
            continue
        if idx == len(groups):
            best = cnt
            continue
        stack.append((idx + 1, used, cnt))
        stack += [(idx + 1, used | s, cnt + 1) for s in reversed(groups[idx]) if not s & used]
    return best


def adm_of_order(g: Digraph, order: LinearOrder, v: int, r: int) -> int:
    """Largest family of length-<=r paths leaving v towards L-smaller
    endpoints, pairwise meeting only in v."""
    if len(order) != g.n:
        raise ValueError("order size does not match the graph")
    _check_radius(r)
    _check_vertices(g.n, (v,))
    smaller = frozenset(
        w for w in range(g.n) if order.position(w) < order.position(v)
    )
    return _max_disjoint([[s] for s in _adm_candidates(g, v, smaller, r)])


def adm_exact(g: Digraph, r: int, max_n: int = 9) -> tuple[int, LinearOrder]:
    """Exact r-admissibility with witness order.

    The admissibility of a vertex depends only on the set of smaller
    vertices, so the search over orders memoizes on that set.
    """
    _check_radius(r)
    _check_cap("adm_exact", g.n, max_n)
    n = g.n
    if n == 0:
        return 0, LinearOrder([])

    @cache
    def adm_val(u: int, smaller_mask: int) -> int:
        smaller = frozenset(_bits(smaller_mask))
        return _max_disjoint([[s] for s in _adm_candidates(g, u, smaller, r)])

    identity = LinearOrder.identity(n)
    best = max(adm_of_order(g, identity, v, r) for v in range(n))
    best_order = identity
    full = (1 << n) - 1
    stack = [(0, 0, ())]
    while stack:
        placed_mask, cur_max, seq = stack.pop()
        if cur_max >= best:
            continue
        if placed_mask == full:
            best, best_order = cur_max, LinearOrder(seq)
            continue
        stack += [(placed_mask | (1 << u), max(cur_max, adm_val(u, placed_mask)), seq + (u,))
                  for u in reversed(range(n)) if not placed_mask >> u & 1]
    return best, best_order


# ---------------------------------------------------------------------------
# transitive fraternal augmentations


@dataclass(frozen=True, eq=False)
class Augmentation:
    """Layered arc sets E_1..E_depth over the base graph's vertices.

    E_1 re-orients the base arcs; deeper layers hold the oriented
    fraternal/transitive closures.  No two arcs of the layers join the
    same two vertices, in either direction, so a vertex's out-degrees
    summed over the layers are its out-degree in the union.  ``out[i][u]``
    lists u's out-neighbors in E_{i+1} in no particular order, as the
    peel left them; the last layer in ``out`` has an arc, and every layer
    past ``len(out)`` is empty.  ``layers``, all ``depth`` arc frozensets
    for the definition checker in ``acceptance`` and the benchmark's arc
    count, is derived on each access; nothing on the order's path reads
    it.

    ``partners[u]`` is the set of vertices that some layer joins to u in
    either direction: the union's undirected adjacency, which
    ``order_from_augmentation`` peels, and ``len(partners)`` is the
    vertex count.  ``tfa_augment`` hands over the closure's own lists and
    sets without a copy, so ``out`` and ``partners`` are read-only by
    contract: nothing may change them.  Equality is identity.
    """

    depth: int
    out: tuple[list, ...] = field(repr=False)
    partners: tuple[set, ...] = field(repr=False)

    @property
    def layers(self) -> tuple[frozenset, ...]:
        return (tuple(frozenset((u, v) for u, heads in enumerate(rows) for v in heads)
                      for rows in self.out)
                + (frozenset(),) * (self.depth - len(self.out)))


def tfa_augment(g: Digraph, r: int) -> Augmentation:
    """Depth-r transitive fraternal augmentation of g.

    Layer t (for t >= 2) closes every fraternal pattern (w,u) in E_j1,
    (w,v) in E_j2 and every transitive pattern (u,w) in E_j1, (w,v) in
    E_j2 with j1 + j2 = t, provided the base graph joins the new pair by
    a directed path of length at most t in some direction and the pair is
    not already augmented.  Every layer is kept as ``_peel_lists`` returns
    its live lists, the out-lists towards the vertices peeled later: layer
    1 peels the partner sets below, the base graph's underlying adjacency,
    and a later layer peels its pairs, listed at both ends in the order
    the closure finds them.  The closure reads out-lists only, so no
    in-list, ``Digraph`` or sorted row is made per layer; the peel's
    removal order and the set in each live list do not depend on row
    order, so neither do the layers' arcs.  A layer that gains no pair is
    kept with no peel.

    ``partners[u]`` is the set of vertices that some layer so far pairs
    with u: a proposed pair is new when v is not in ``partners[u]``, and
    an accepted pair enters both sets at once, so no pair is joined twice
    or both ways.  The sets become ``Augmentation.partners``, the union
    that ``order_from_augmentation`` peels; they are handed over as they
    are, not frozen.
    Transitive patterns are walked source-major, u, then w in out_j1(u),
    then v in out_j2(w), for every split j1 + j2 = t; fraternal ones only
    once per unordered split: out_j1(w) x out_j2(w) for j1 < j2, the
    2-combinations of the one out-list for j1 = j2, and none for j1 > j2,
    which the split (j2, j1) already proposes.  A pattern with u == v
    would need the pair {u, w} joined twice, or u twice in one out-list,
    so none arises and none is tested for.  The distance tables, r-capped
    out-searches from every vertex, are made after layer 1's peel and
    dropped before layer r's, so neither of those peels holds memory
    beside them.

    Once layers a .. 2a - 1 are all empty, so is every later one: each
    split j1 + j2 = t >= 2a has its larger part in a .. t - 1, empty by
    induction.  The loop stops there, and ``out`` ends at the last layer
    with an arc; the depth r is kept only in ``Augmentation.depth``, so a
    radius past the closure's depth costs no time or memory.  A closure
    that never empties still scans every split of every layer,
    O(r^2 * n) before any candidate pair.
    """
    if r < 1:
        raise ValueError("augmentation depth must be at least 1")
    n = g.n
    partners = [{*o, *i} for o, i in zip(g._out, g._in)]
    if not g.m:
        return Augmentation(r, (), tuple(partners))
    layers = [_peel_lists(partners)[1]]
    dist = list(_bfs_each(g._out, range(n), r)) if r > 1 else None
    far = r + 1

    empty_from = 2  # the trailing run of empty layers starts here
    for t in range(2, r + 1):
        if t >= 2 * empty_from:
            break
        und = [[] for _ in range(n)]  # this layer's pairs, listed at both ends
        for j1 in range(1, t):
            j2 = t - j1
            o1, o2 = layers[j1 - 1], layers[j2 - 1]
            # transitive: u -> w in E_j1 followed by w -> v in E_j2, every split
            for u, mids in enumerate(o1):
                pu = partners[u]
                du = dist[u]
                for w in mids:
                    for v in o2[w]:
                        if v not in pu and (du.get(v, far) <= t or dist[v].get(u, far) <= t):
                            pu.add(v)
                            partners[v].add(u)
                            und[u].append(v)
                            und[v].append(u)
            if j1 > j2:
                continue
            # fraternal: w -> u in E_j1 and w -> v in E_j2, the split j1 <= j2 only
            for starts, ends in zip(o1, o2):
                if not ends:
                    continue
                for u, v in (combinations(ends, 2) if j1 == j2
                             else ((u, v) for u in starts for v in ends)):
                    if v not in partners[u] and (
                        dist[u].get(v, far) <= t or dist[v].get(u, far) <= t
                    ):
                        partners[u].add(v)
                        partners[v].add(u)
                        und[u].append(v)
                        und[v].append(u)
        if t == r:
            dist = None  # the last closure has run
        if any(und):
            und = _peel_lists(und)[1]
            empty_from = t + 1
        layers.append(und)

    return Augmentation(r, tuple(layers[:empty_from - 1]), tuple(partners))


@dataclass(frozen=True)
class WcolOrder:
    """An order plus the certificate that produced it.

    ``guarantee`` bounds every weak-reachability set of the order at the
    augmentation depth: (max_outdegree + 1) * smaller_neighbors + 1.  The
    augmentation itself is not kept: orders are memoised on their graph,
    and its layers would live as long.
    """

    order: LinearOrder
    guarantee: int
    smaller_neighbors: int
    max_outdegree: int


def order_from_augmentation(g: Digraph, aug: Augmentation) -> WcolOrder:
    """Greedy order of the augmentation union graph with its bound.

    The union is never built as a graph.  The smallest-last peel runs on
    ``aug.partners``, and d, the union's largest out-degree, is the
    largest sum of a vertex's out-list lengths over ``aug.out``, which
    the never-twice invariant of the layers makes exact.
    """
    if len(aug.partners) != g.n:
        raise ValueError("augmentation does not fit the graph")
    d = max(map(sum, zip(*(map(len, rows) for rows in aug.out))), default=0)
    c, order, _ = _smallest_last(aug.partners)
    return WcolOrder(order=order, guarantee=(d + 1) * c + 1, smaller_neighbors=c, max_outdegree=d)


def compute_wcol_order(g: Digraph, r: int) -> WcolOrder:
    """Augment to depth r, then extract the order and its guarantee.

    The result is kept on the (immutable) graph, so repeated calls with
    the same graph object and radius return the same ``WcolOrder`` in
    O(1); the first call costs the augmentation plus the bucket-queue
    peel of the union the augmentation's partner sets already hold,
    O(n + m' log n) for m' union arcs, with no rebuild of the union and
    no ``Digraph`` built at all.  The computation is deterministic, so
    the memo changes no output.

    At r = 0 the augmentation has no layers: the order is the peel of the
    edgeless union, with guarantee 1, since every vertex weakly 0-reaches
    only itself.
    """
    _check_radius(r)
    key = ("wcol_order", r)
    if key not in g._derived:
        if r:
            aug = tfa_augment(g, r)
        else:
            aug = Augmentation(0, (), tuple(set() for _ in range(g.n)))
        g._derived[key] = order_from_augmentation(g, aug)
    return g._derived[key]


# ---------------------------------------------------------------------------
# low directed tree-depth colorings


# largest radius 2^p that low_treedepth_coloring augments to
MAX_COLORING_RADIUS = 32


def low_treedepth_coloring(g: Digraph, p: int) -> list[int]:
    """Greedy coloring along a radius-2^p order.

    Any union of i <= p color classes induces a subgraph whose weak
    coloring number at radius 2^p, under the same order, is at most i.
    """
    if p < 1:
        raise ValueError("class budget must be at least 1")
    if p >= MAX_COLORING_RADIUS.bit_length():  # 2^p > cap, before 2^p is built
        raise SizeCapError(
            f"low_treedepth_coloring: radius 2^{p} exceeds cap {MAX_COLORING_RADIUS}"
        )
    radius = 2 ** p
    res = compute_wcol_order(g, radius)
    sets = wreach_all(g, res.order, radius)
    colors = [-1] * g.n
    for v in res.order:
        taken = {colors[w] for w in sets[v] if w != v and colors[w] != -1}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    if g.n and max(colors) + 1 > res.guarantee:
        raise InternalInvariantError("coloring exceeded the order guarantee")
    return colors
