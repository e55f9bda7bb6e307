"""Exact, desk-scale computation of directed shallow minor relations.

A directed model maps each pattern vertex to a branch set (a disjoint
vertex subset of the host) and each pattern arc to a host arc between
the corresponding branch sets.  Within every branch set three conditions
must hold, all with directed paths of length at most r inside the branch
set: every in-attachment reaches every out-attachment, some source
reaches all out-attachments, and some sink is reached from all
in-attachments.

The searches below are exhaustive and refuse (raising SizeCapError)
rather than approximate when the host exceeds the cap.  Branch sets are
only drawn from weakly connected subsets: a model whose branch set is
disconnected can always be shrunk to the component carrying its
attachments, so nothing is lost.

Densities are exact rationals; comparisons against thresholds must never
go through floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Optional

from .coloring import _bounded_paths, _inclusion_minimal, _max_disjoint
from .digraph import Digraph, _adjacency_masks, _bits, _mask_reach, _peel_lists, out_distances
from .errors import InternalInvariantError, _check_cap
from .instances import crown


@dataclass(frozen=True)
class DirectedModel:
    """Witness that a pattern digraph occurs as a depth-r minor.

    ``branch_sets[v]`` is the host vertex set of pattern vertex v;
    ``arc_images[e]`` is the host arc representing pattern arc e;
    ``sources``/``sinks`` give the designated s_v / t_v per branch set.
    """

    depth: int
    branch_sets: dict
    arc_images: dict
    sources: dict
    sinks: dict


def _connected_subsets(g: Digraph) -> list[int]:
    """All nonempty weakly connected vertex subsets, as bitmasks.

    Ordered by size then value so searches are deterministic and try
    small branch sets first.
    """
    n = g.n
    und_mask = [o | i for o, i in zip(*_adjacency_masks(g))]
    result = []
    for mask in range(1, 1 << n):
        if _mask_reach(und_mask, mask & -mask, mask, None) == mask:
            result.append(mask)
    result.sort(key=lambda m: (bin(m).count("1"), m))
    return result


def _arcs_between(g: Digraph, src_mask: int, dst_mask: int) -> list[tuple[int, int]]:
    """Host arcs from the vertices of ``src_mask`` into ``dst_mask``."""
    return [(a, b) for a in _bits(src_mask) for b in g.out_neighbors(a) if dst_mask >> b & 1]


class _BlockInfo:
    """Bounded directed distances inside one induced branch subgraph."""

    __slots__ = ("members", "dist")

    def __init__(self, g: Digraph, mask: int, r: int):
        self.members = tuple(_bits(mask))
        within = frozenset(self.members)
        self.dist = {
            a: out_distances(g, a, cap=r, within=within) for a in self.members
        }

    def feasible(self, ins: frozenset, outs: frozenset, r: int):
        """Check the three branch-set conditions; return (s, t) or None."""
        for a in ins:
            d = self.dist[a]
            for b in outs:
                if d.get(b, r + 1) > r:
                    return None
        source = sink = None
        for s in self.members:
            if all(self.dist[s].get(o, r + 1) <= r for o in outs):
                source = s
                break
        if source is None:
            return None
        for t in self.members:
            if all(self.dist[a].get(t, r + 1) <= r for a in ins):
                sink = t
                break
        if sink is None:
            return None
        return source, sink


def _arc_images(blocks: list[_BlockInfo], pairs: list[tuple[int, int]],
                cands: list[list[tuple[int, int]]], r: int, floor: int):
    """Most block ``pairs`` (i, j) that get a host arc from ``cands`` with
    blocks i and j still feasible, when more than ``floor``: (count, the
    chosen arcs in pair order); (floor, []) when no choice beats it.

    Depth-first over (next pair, pairs given, in- and out-attachments per
    block, chosen arcs) nodes: each candidate arc of the pair that keeps
    both blocks feasible, then leaving the pair out.  A node that cannot
    beat the best count so far is cut when popped, so ``floor`` =
    ``len(pairs) - 1`` cuts every skip and stops at the first full choice.
    """
    best, chosen = floor, None
    empty = (frozenset(),) * len(blocks)
    stack = [(0, 0, empty, empty, None)]
    while stack:
        idx, cnt, ins, outs, arcs = stack.pop()
        if cnt + (len(pairs) - idx) <= best:
            continue
        if idx == len(pairs):
            best, chosen = cnt, arcs
            continue
        stack.append((idx + 1, cnt, ins, outs, arcs))
        i, j = pairs[idx]
        for arc in reversed(cands[idx]):
            a, b = arc
            outs_ab, ins_ab = list(outs), list(ins)
            outs_ab[i] = outs[i] | {a}
            ins_ab[j] = ins[j] | {b}
            if (blocks[i].feasible(ins_ab[i], outs_ab[i], r) is not None
                    and blocks[j].feasible(ins_ab[j], outs_ab[j], r) is not None):
                stack.append((idx + 1, cnt + 1, ins_ab, outs_ab, (arc, arcs)))
    seq = []
    while chosen:  # linked (arc, rest) cells, last choice first
        arc, chosen = chosen
        seq.append(arc)
    return best, seq[::-1]


def validate_model(h: Digraph, g: Digraph, r: int, model: DirectedModel) -> bool:
    """Re-check every model condition directly from the definition."""
    if set(model.branch_sets) != set(range(h.n)):
        return False
    used = set()
    for v in range(h.n):
        bs = model.branch_sets[v]
        if not bs or used & set(bs):
            return False
        used |= set(bs)
    if not all(0 <= x < g.n for x in used):  # before any lookup in the host's lists
        return False
    for e in h.arcs():
        if e not in model.arc_images:
            return False
        a, b = model.arc_images[e]
        if a not in model.branch_sets[e[0]] or b not in model.branch_sets[e[1]]:
            return False
        if not g.has_arc(a, b):
            return False
    # distinct pattern arcs must use distinct host arcs
    if len(set(model.arc_images.values())) != len(model.arc_images):
        return False
    for v in range(h.n):
        bs = frozenset(model.branch_sets[v])
        ins = frozenset(
            model.arc_images[e][1] for e in h.arcs() if e[1] == v
        )
        outs = frozenset(
            model.arc_images[e][0] for e in h.arcs() if e[0] == v
        )
        dist = {a: out_distances(g, a, cap=r, within=bs) for a in bs}
        for a in ins:
            for b in outs:
                if dist[a].get(b, r + 1) > r:
                    return False
        s, t = model.sources[v], model.sinks[v]
        if s not in bs or t not in bs:
            return False
        if any(dist[s].get(o, r + 1) > r for o in outs):
            return False
        if any(dist[a].get(t, r + 1) > r for a in ins):
            return False
    return True


def is_depth_r_minor(h: Digraph, g: Digraph, r: int,
                     max_n: int = 12) -> Optional[DirectedModel]:
    """Exhaustive search for a directed model of h in g at depth r."""
    _check_minor_search(g, r, max_n)
    if h.n == 0:
        return DirectedModel(r, {}, {}, {}, {})
    if h.n > g.n:
        return None

    subsets = _connected_subsets(g)
    max_block = g.n - (h.n - 1)
    subsets = [m for m in subsets if bin(m).count("1") <= max_block]
    info = cache(partial(_BlockInfo, g, r=r))
    arcs_between = cache(partial(_arcs_between, g))

    # place high-degree pattern vertices first: they prune hardest
    h_order = sorted(
        range(h.n),
        key=lambda v: (-(len(h.out_neighbors(v)) + len(h.in_neighbors(v))), v),
    )

    stack = [(0, ())]  # (host vertices used, branch sets of a prefix of h_order)
    while stack:
        used, masks = stack.pop()
        assign = dict(zip(h_order, masks))
        if len(masks) < len(h_order):
            v = h_order[len(masks)]
            kids = []
            for mask in subsets:
                if mask & used:
                    continue
                # every pattern arc to an already placed neighbour needs a host arc
                links = [(mask, assign[u]) for u in h.out_neighbors(v) if u in assign]
                links += [(assign[u], mask) for u in h.in_neighbors(v) if u in assign]
                if all(arcs_between(a, b) for a, b in links):
                    kids.append((used | mask, masks + (mask,)))
            stack += reversed(kids)
            continue
        # arc images: the fewest candidates first, all of them or none
        harcs = sorted(h.arcs(), key=lambda e: len(arcs_between(assign[e[0]], assign[e[1]])))
        blocks = [info(assign[v]) for v in range(h.n)]
        cands = [arcs_between(assign[u], assign[v]) for u, v in harcs]
        count, arcs = _arc_images(blocks, harcs, cands, r, len(harcs) - 1)
        if count < len(harcs):
            continue
        images = dict(zip(harcs, arcs))
        ends = [blocks[v].feasible(frozenset(b for (_, w), (_, b) in images.items() if w == v),
                                   frozenset(a for (u, _), (a, _) in images.items() if u == v), r)
                for v in range(h.n)]
        model = DirectedModel(
            depth=r,
            branch_sets={v: frozenset(_bits(assign[v])) for v in range(h.n)},
            arc_images=images,
            sources={v: s for v, (s, _) in enumerate(ends)},
            sinks={v: t for v, (_, t) in enumerate(ends)},
        )
        if not validate_model(h, g, r, model):
            raise InternalInvariantError("search produced a model its own checker rejects")
        return model
    return None


def _check_minor_search(g: Digraph, r: int, max_n: int):
    _check_cap("is_depth_r_minor", g.n, max_n)
    if r < 0:
        raise ValueError("depth must be nonnegative")


def crown_model(g: Digraph, q: int, r: int, max_n: int = 12) -> Optional[DirectedModel]:
    """A directed model of the order-q crown in g at depth r, or None.

    A crown with more vertices than g, q + q(q-1)/2, is never built: it
    answers None after the checks that come first (q, host cap, depth)."""
    if q >= 2 and q + q * (q - 1) // 2 > g.n:
        _check_minor_search(g, r, max_n)
        return None
    return is_depth_r_minor(crown(q), g, r, max_n=max_n)


def contains_crown(g: Digraph, q: int, r: int, max_n: int = 12) -> bool:
    """Is the order-q crown a depth-r minor of g?"""
    return crown_model(g, q, r, max_n=max_n) is not None


# ---------------------------------------------------------------------------
# densities


def grad_lower_bound(g: Digraph) -> Fraction:
    """Greedy densest-subgraph peel; its best density is a depth-0 minor
    density and therefore a valid lower bound on the rank-r grad for all r.

    The peel runs on out+in degree, so an antiparallel pair counts twice;
    removing a vertex drops exactly its degree's worth of arcs.  Costs
    the bucket-queue peel's O(n + m log n).
    """
    if g.n == 0:
        return Fraction(0)
    arcs = best_arcs = g.m
    alive = best_alive = g.n
    removed, later = _peel_lists([out + inc for out, inc in zip(g._out, g._in)])
    for v in removed[:-1]:  # removal order: a degree is its live list's length
        arcs -= len(later[v])
        alive -= 1
        if arcs * best_alive > best_arcs * alive:
            best_arcs, best_alive = arcs, alive
    return Fraction(best_arcs, best_alive)


def _max_subgraph_density(g: Digraph, cap: int) -> Fraction:
    """Exact rank-0 grad: depth-0 minors are exactly the subgraphs."""
    _check_cap("grad", g.n, cap)
    if g.n == 0:
        return Fraction(0)
    out_mask = _adjacency_masks(g)[0]
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        arcs = 0
        for v in _bits(mask):
            arcs += bin(out_mask[v] & mask).count("1")
        best = max(best, Fraction(arcs, bin(mask).count("1")))
    return best


def grad(g: Digraph, r: int, max_n: int = 8) -> Fraction:
    """Exact greatest reduced average density of rank r.

    Enumerates all partitions of vertex subsets into weakly connected
    branch sets, and for each partition finds the largest jointly
    realizable arc count by branch and bound over arc image choices.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r == 0:
        return _max_subgraph_density(g, max(max_n, 14))
    _check_cap("grad", g.n, max_n)
    if g.n == 0:
        return Fraction(0)

    subsets = _connected_subsets(g)
    by_leader: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for mask in subsets:
        by_leader[(mask & -mask).bit_length() - 1].append(mask)

    info = cache(partial(_BlockInfo, g, r=r))
    arcs_between = cache(partial(_arcs_between, g))

    def max_arcs(blocks: tuple[int, ...]) -> int:
        """Largest realizable pattern arc count for this branch partition."""
        k = len(blocks)
        pairs = []
        for i in range(k):
            for j in range(k):
                if i != j and arcs_between(blocks[i], blocks[j]):
                    pairs.append((i, j))
        if all(bin(b).count("1") == 1 for b in blocks):
            return len(pairs)  # singleton blocks carry no path constraints
        cands = [arcs_between(blocks[i], blocks[j]) for i, j in pairs]
        return _arc_images([info(b) for b in blocks], pairs, cands, r, 0)[0]

    best = Fraction(0)
    stack = [((1 << g.n) - 1, ())]
    while stack:
        avail, blocks = stack.pop()
        if avail == 0:
            if blocks:
                best = max(best, Fraction(max_arcs(blocks), len(blocks)))
            continue
        leader = (avail & -avail).bit_length() - 1
        stack += [(avail & ~mask, blocks + (mask,))
                  for mask in reversed(by_leader[leader]) if not mask & ~avail]
        # leader may also be left out of the pattern entirely: tried first
        stack.append((avail & ~(1 << leader), blocks))
    return best


def top_grad(g: Digraph, r: int, max_n: int = 8) -> Fraction:
    """Exact topological greatest average density of rank r.

    Principal vertices are host vertices; each pattern arc is realized by
    a directed path of length at most 2r whose internal vertices avoid
    the principals and all other chosen paths.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    _check_cap("top_grad", g.n, max_n)
    if g.n == 0:
        return Fraction(0)
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for principals in combinations(range(g.n), size):
            pset = frozenset(principals)
            cand = []  # per principal pair a != b: minimal inner sets of a->b paths
            for a in principals:
                inner_sets: dict[int, set] = {}
                for inner, b in _bounded_paths(g.out_neighbors, a, pset, 2 * r):
                    inner_sets.setdefault(b, set()).add(frozenset(inner))
                cand += [_inclusion_minimal(inner_sets[b]) for b in principals if b in inner_sets]
            best = max(best, Fraction(_max_disjoint(cand), size))
    return best
