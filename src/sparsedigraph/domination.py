"""Distance profiles, neighborhood complexity, distance-r VC dimension,
and the two dominating set approximations.

The red-blue approximation runs a greedy set cover and, where it can
help, an iterative-reweighting hitting set engine: guess the optimum k',
sample weighted nets sized from the VC bound, and double the weights of
any unhit in-neighborhood; the smaller valid answer wins.  Net sizes grow
with k', so when the first net (k' = 1) is already no smaller than the
blue set B, no net the engine could certify is smaller than B, and the
greedy answer, a subset of B, meets the engine's bound: the engine is
then skipped.  At desk scale that is the common case.  Where the engine
runs, later nets are capped at |B| draws.  Every output is validated
before it is returned.

The strongly connected variant guesses a center v and a radius k, colors
the strong k-ball of v blue, finds a red-blue dominator inside it, and
stitches the result together with shortest paths through v.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from typing import Iterable, Optional, Sequence

from .coloring import compute_wcol_order
from .digraph import Digraph, in_ball, in_distances, out_distances, shortest_path
from .errors import InfeasibleError, InternalInvariantError, _check_cap
from .oracles import verify_dominating, verify_strongly_connected

UNREACHED = None  # distance-vector entry for "further than r"


def distance_vector(g: Digraph, v: int, anchors: Sequence[int], r: int) -> tuple:
    """Distances from each anchor to v, entries beyond r replaced by None."""
    dist = in_distances(g, v, cap=r)
    return tuple(dist.get(a, UNREACHED) for a in anchors)


def neighborhood_complexity(g: Digraph, subset: Iterable[int], r: int) -> int:
    """Number of distinct traces N_r^-(v) & subset over all vertices."""
    s = frozenset(subset)
    return len({frozenset(in_ball(g, v, r) & s) for v in range(g.n)})


def vc_dimension_distance_r(g: Digraph, r: int,
                            max_n: int = 20) -> tuple[int, frozenset]:
    """Largest set shattered by the r-in-neighborhood family, with witness.

    Level-wise search: a set can only be shattered if all its subsets
    are, so candidates grow one element at a time.
    """
    _check_cap("vc_dimension_distance_r", g.n, max_n)
    family = {frozenset(in_ball(g, v, r)) for v in range(g.n)}

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


def _weighted_sample(blues: list[int], weights: dict, count: int,
                     rng: random.Random) -> frozenset:
    """``count`` independent draws by inversion over the prefix sums.

    Each draw is CPython's ``randrange(total)`` done by hand: redraw
    ``getrandbits(total.bit_length())`` until it falls below ``total``.
    Draws are taken in batches of the number still missing, and a batch
    keeps its values below ``total`` in order, so the generator makes the
    same calls as ``count`` calls of ``randrange`` and every seeded net is
    unchanged.  The per-draw loop runs in C (``map``, ``filter``,
    ``bisect``); costs O(|blues| + count * log |blues|).
    """
    prefix = list(itertools.accumulate(map(weights.__getitem__, blues)))
    total = prefix[-1] if prefix else 0
    if count and total <= 0:
        raise ValueError("empty range for the weighted sample")
    bits = total.bit_length()
    picked: set = set()
    need = count
    while need:
        shots = list(filter(total.__gt__, map(rng.getrandbits, itertools.repeat(bits, need))))
        need -= len(shots)
        picked.update(map(blues.__getitem__,
                          map(bisect.bisect_right, itertools.repeat(prefix), shots)))
    return frozenset(picked)


def _net_size(delta: int, k_guess: int) -> int:
    """Draws in an ε-net for optimum guess ``k_guess``, ε = 1/(2 k_guess),
    of a family with VC bound ``delta``, before the desk-scale cap.
    Increasing in both arguments."""
    eps = 1.0 / (2 * k_guess)
    return math.ceil((8 * delta / eps) * math.log(8 * delta / eps))


def _engine_delta(g: Digraph, r: int, n_blues: int) -> Optional[int]:
    """VC bound for the reweighting engine's nets, or None when its first
    net (k_guess = 1) already has at least ``n_blues`` draws.

    The bound is the certified δ = (r+2)(2·guarantee)² of the wcol order.
    Every guarantee is at least 1, so δ >= 4(r+2); that floor is tested
    first, and a blue set too small to beat it never computes the order.
    The order needs r >= 1, so radius 0 is refused whether or not the
    engine would run.
    """
    if r < 1:
        raise ValueError("augmentation depth must be at least 1")
    if _net_size(4 * (r + 2), 1) >= n_blues:
        return None
    delta = (r + 2) * (2 * compute_wcol_order(g, r).guarantee) ** 2
    return delta if _net_size(delta, 1) < n_blues else None


def redblue_dominate_approx(g: Digraph, red: Iterable[int], blue: Iterable[int],
                            r: int, seed: int = 0,
                            stats_out: Optional[dict] = None) -> frozenset:
    """Blue set dominating every red vertex within distance r.

    Raises InfeasibleError when even the whole blue set fails.  A greedy
    cover always runs.  The reweighting engine runs only when its first
    net is smaller than the blue set; the smaller valid answer of the two
    wins.  Skipping it loses nothing: nets only grow with the optimum
    guess, so every net the engine could certify would be at least as
    large as the blue set, and the greedy answer, a subset of it, already
    meets that bound.  When a dict is passed as ``stats_out`` it receives
    the optimum guess of the net that was found (``None`` when the engine
    was skipped or found none) and which engine produced the answer.
    """
    reds = sorted(set(red))
    blues = sorted(set(blue))
    for v in reds + blues:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    if not reds:
        if stats_out is not None:
            stats_out.update(k_guess=None, engine="greedy")
        return frozenset()
    blue_set = frozenset(blues)
    members = []
    for v in reds:
        trace = frozenset(in_ball(g, v, r) & blue_set)
        if not trace:
            raise InfeasibleError(f"red vertex {v} is not blue-dominated at radius {r}")
        members.append(trace)
    members = sorted(set(members), key=sorted)

    greedy = _greedy_hitting_set(members, blues)

    delta = _engine_delta(g, r, len(blues))
    rng = random.Random(seed)
    candidate: Optional[frozenset] = None
    k_guess = 1
    while delta is not None and k_guess <= len(blues):
        weights = {b: 1 for b in blues}
        net_size = min(_net_size(delta, k_guess), len(blues))  # desk-scale cap
        rounds = math.ceil(4 * k_guess * math.log2(g.n / k_guess + 2))
        for _ in range(rounds):
            net = _weighted_sample(blues, weights, net_size, rng)
            unhit = next(filter(net.isdisjoint, members), None)
            if unhit is None:
                candidate = net
                break
            for b in unhit:
                weights[b] *= 2
        if candidate is not None:
            break
        k_guess *= 2

    result = greedy if candidate is None or len(greedy) <= len(candidate) else candidate
    if not verify_dominating(g, result, r, reds) or not result <= blue_set:
        raise InternalInvariantError("red-blue approximation produced an invalid set")
    if stats_out is not None:
        stats_out["k_guess"] = k_guess if candidate is not None else None
        stats_out["engine"] = "greedy" if result is greedy else "net"
    return result


# ---------------------------------------------------------------------------
# strongly connected distance-r dominating sets


def scds_approx(g: Digraph, r: int, seed: int = 0,
                stats_out: Optional[dict] = None) -> frozenset:
    """Strongly connected set dominating every vertex within distance r.

    Tries radii k = 1, 2, ... and every center; the best (smallest)
    validated answer at the first feasible radius is returned.
    """
    if g.n == 0:
        return frozenset()
    if not verify_strongly_connected(g, range(g.n)):
        raise InfeasibleError("graph is not strongly connected")

    dist_from = [out_distances(g, v) for v in range(g.n)]

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
                core = redblue_dominate_approx(
                    g, range(g.n), ball, r,
                    seed=seed * 1_000_003 + k * 1009 + center,
                )
            except InfeasibleError:
                continue
            stitched = set(core) | {center}
            for w in sorted(core):
                for path in (shortest_path(g, center, w), shortest_path(g, w, center)):
                    stitched.update(path)
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
