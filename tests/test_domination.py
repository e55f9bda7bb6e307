"""Distance profiles, VC dimension, and the domination approximations."""
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, bidirected_clique, directed_path, random_digraph
from sparsedigraph.coloring import compute_wcol_order, wcol_exact, wreach_all
from sparsedigraph.digraph import in_ball, in_distances, out_distances, shortest_path
from sparsedigraph.domination import (
    _greedy_hitting_set,
    distance_vector,
    neighborhood_complexity,
    redblue_dominate_approx,
    scds_approx,
    vc_dimension_distance_r,
)
from sparsedigraph.errors import InfeasibleError, SizeCapError
from sparsedigraph.oracles import (
    redblue_exact_enum,
    verify_dominating,
    verify_strongly_connected,
)


# ---------------------------------------------------------------------------
# distance vectors


def test_distance_vector_self():
    g = directed_path(3)
    assert distance_vector(g, 1, [1], 2) == (0,)


def test_distance_vector_path():
    g = directed_path(3)
    assert distance_vector(g, 2, [0, 1], 1) == (None, 1)
    assert distance_vector(g, 2, [0, 1], 2) == (2, 1)


def test_distance_vector_matches_bfs():
    for seed in range(4):
        g = random_digraph(10, 25, seed)
        anchors = list(range(0, 10, 2))
        for v in range(g.n):
            vec = distance_vector(g, v, anchors, 3)
            for a, entry in zip(anchors, vec):
                d = in_distances(g, v).get(a)
                expect = d if d is not None and d <= 3 else None
                assert entry == expect


def test_vector_equality_implies_trace_equality():
    # matching profiles towards the weak-reachability hull of X force
    # matching in-ball traces on X
    for seed in range(4):
        g = random_digraph(9, 20, seed)
        r = 2
        res = compute_wcol_order(g, r)
        sets = wreach_all(g, res.order, r)
        rng = random.Random(seed)
        x = sorted(rng.sample(range(g.n), 4))
        hull = sorted(set().union(*[sets[v] for v in x]))
        for u in range(g.n):
            for v in range(g.n):
                hu = sorted(set(hull) & sets[u])
                hv = sorted(set(hull) & sets[v])
                if hu != hv:
                    continue
                if distance_vector(g, u, hu, r) == distance_vector(g, v, hv, r):
                    assert in_ball(g, u, r) & set(x) == in_ball(g, v, r) & set(x)


# ---------------------------------------------------------------------------
# neighborhood complexity


def test_complexity_empty_subset():
    g = random_digraph(6, 10, 0)
    assert neighborhood_complexity(g, [], 2) == 1


def test_complexity_edgeless_full():
    g = Digraph(5)
    assert neighborhood_complexity(g, range(5), 3) == 5


def test_complexity_within_order_bound():
    for seed in range(5):
        g = random_digraph(12, 30, seed)
        r = 2
        res = compute_wcol_order(g, r)
        rng = random.Random(seed)
        x = rng.sample(range(g.n), 5)
        bound = ((r + 2) * res.guarantee * len(x)) ** res.guarantee
        assert neighborhood_complexity(g, x, r) <= bound


# ---------------------------------------------------------------------------
# VC dimension


def shattered_by_family(g, r, x):
    family = {frozenset(in_ball(g, v, r)) for v in range(g.n)}
    return len({f & frozenset(x) for f in family}) == 2 ** len(x)


def vc_by_full_scan(g, r):
    best = 0
    for size in range(g.n + 1):
        if not any(
            shattered_by_family(g, r, x) for x in combinations(range(g.n), size)
        ):
            break
        best = size
    return best


def test_vc_edgeless():
    g = Digraph(4)
    dim, witness = vc_dimension_distance_r(g, 1)
    assert dim == 1
    assert shattered_by_family(g, 1, witness)


def test_vc_bidirected_clique():
    # every in-ball is the whole vertex set: nothing of size 1 shatters
    assert vc_dimension_distance_r(bidirected_clique(4), 1)[0] == 0


def test_vc_matches_full_scan():
    for seed in range(5):
        g = random_digraph(7, 16, seed)
        for r in (1, 2):
            dim, witness = vc_dimension_distance_r(g, r)
            assert dim == vc_by_full_scan(g, r)
            assert shattered_by_family(g, r, witness) or dim == 0


def test_vc_monotone_under_ground_subsets():
    g = random_digraph(8, 20, 3)
    r = 1
    dim, _ = vc_dimension_distance_r(g, r)
    family = [frozenset(in_ball(g, v, r)) for v in range(g.n)]
    rng = random.Random(1)
    for _ in range(5):
        ground = frozenset(rng.sample(range(g.n), 5))
        sub = {f & ground for f in family}
        best = 0
        for size in range(len(ground) + 1):
            if any(
                len({f & frozenset(x) for f in sub}) == 2 ** size
                for x in combinations(sorted(ground), size)
            ):
                best = size
        assert best <= dim


def test_vc_within_wcol_bound():
    for seed in range(4):
        g = random_digraph(7, 14, seed)
        for r in (1, 2):
            dim, _ = vc_dimension_distance_r(g, r)
            c = wcol_exact(g, r)[0]
            assert dim <= (r + 2) * (2 * c) ** 2


def test_vc_cap():
    with pytest.raises(SizeCapError):
        vc_dimension_distance_r(random_digraph(25, 50, 0), 1)


# ---------------------------------------------------------------------------
# red-blue approximation


def test_redblue_empty_red():
    g = directed_path(4)
    assert redblue_dominate_approx(g, [], [0, 1], 1) == frozenset()


def test_redblue_single_blue_dominator():
    g = Digraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    d = redblue_dominate_approx(g, red=[1, 2, 3, 4], blue=[0], r=1)
    assert d == frozenset({0})


def test_redblue_infeasible():
    g = directed_path(3)
    with pytest.raises(InfeasibleError):
        redblue_dominate_approx(g, red=[0], blue=[2], r=1)


def test_redblue_valid_and_small_on_random():
    count = 0
    seed = 0
    while count < 12 and seed < 100:
        seed += 1
        n = 8 + (seed % 20)
        g = random_digraph(n, 3 * n, seed)
        rng = random.Random(seed)
        blue = sorted(rng.sample(range(n), n // 2))
        red = sorted(rng.sample(range(n), n // 3))
        try:
            d = redblue_dominate_approx(g, red, blue, r=2)
        except InfeasibleError:
            continue
        count += 1
        assert verify_dominating(g, d, 2, red)
        assert d <= set(blue)
        opt = redblue_exact_enum(g, red, blue, 2, max_k=4)
        if opt is not None:
            k = max(len(opt), 1)
            assert len(d) <= 8 * k * math.log2(k + 2)
    assert count >= 8


def test_redblue_deterministic_for_seed():
    g = random_digraph(15, 40, 2)
    red = list(range(0, 15, 2))
    blue = list(range(1, 15, 2)) + [0]
    a = redblue_dominate_approx(g, red, blue, 2)
    b = redblue_dominate_approx(g, red, blue, 2)
    assert a == b


def test_redblue_refuses_radius_zero():
    with pytest.raises(ValueError, match="radius must be at least 1"):
        redblue_dominate_approx(directed_path(3), [0, 1], [0, 1, 2], 0)


@pytest.mark.parametrize("red, blue, bad", [([5], [-1], 5), ([0], [-1, 7], -1), ([-2, 9], [0], -2)])
def test_redblue_names_the_first_out_of_range_vertex(red, blue, bad):
    # the reds, ascending, are checked before the blues, ascending
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        redblue_dominate_approx(directed_path(3), red, blue, 1)


@pytest.mark.parametrize("v, anchors, bad", [(-1, [0, 1, 2], -1), (3, [0, 1, 2], 3),
                                             (2, [0, -1], -1), (2, [3, 0], 3)])
def test_distance_vector_range_checks_its_vertices(v, anchors, bad):
    # v is checked before the anchors, in their given order
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        distance_vector(directed_path(3), v, anchors, 2)


def _refuse(*args, **kwargs):
    raise AssertionError("red-blue domination needs no wcol order")


def _greedy_all_all(g, r):
    members = {frozenset(in_ball(g, v, r)) for v in range(g.n)}
    return _greedy_hitting_set(sorted(members, key=sorted), list(range(g.n)))


def test_redblue_gate_floor_skips_order(monkeypatch):
    # 2000 blue vertices at r = 1: the answer is the greedy cover, and no
    # wcol order is computed on the way
    import sparsedigraph.coloring as coloring
    import sparsedigraph.domination as dom

    g = random_digraph(2000, 6000, 1)
    for name in ("compute_wcol_order", "tfa_augment"):
        monkeypatch.setattr(coloring, name, _refuse)
    monkeypatch.setattr(dom, "vc_dimension_distance_r", _refuse)
    d = dom.redblue_dominate_approx(g, range(g.n), range(g.n), 1)
    assert d == _greedy_all_all(g, 1)


@pytest.mark.parametrize("n,red,r,seed", [
    (1100, [0, 5], 1, 1),
    (1100, range(0, 1100, 50), 1, 4),
    (1500, range(0, 1500, 100), 2, 2),
])
def test_redblue_engine_runs_past_the_gate(n, red, r, seed):
    # on an edgeless graph every red vertex dominates only itself; the
    # seed shuffles the input lists, which must not change the answer
    rng = random.Random(seed)
    reds, blues = list(red), list(range(n))
    rng.shuffle(reds)
    rng.shuffle(blues)
    d = redblue_dominate_approx(Digraph(n, []), reds, blues, r)
    assert d == frozenset(red)


def test_redblue_engine_first_guess_on_edgeless_1100():
    d = redblue_dominate_approx(Digraph(1100, []), [0, 5], range(1100), 1)
    assert d == frozenset({0, 5})


def test_redblue_long_directed_path():
    # a large optimum on a long path: the greedy cover takes every second
    # vertex, in about a tenth of a second
    d = redblue_dominate_approx(directed_path(13000), range(13000), range(13000), 1)
    assert len(d) == 6500


@st.composite
def redblue_instances(draw):
    n = draw(st.integers(1, 20))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    blue = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    # reds among the blues are always dominated, which keeps most
    # instances feasible
    pool = blue if draw(st.booleans()) else range(n)
    red = draw(st.lists(st.sampled_from(pool), max_size=n))
    r = draw(st.integers(1, 3))
    return Digraph(n, set(arcs)), red, blue, r


def _rescan_redblue(g, red, blue, r):
    """Reference: in-ball traces built from ``in_distances`` and covered
    by ``rescan_greedy``."""
    blues = sorted(set(blue))
    members = set()
    for v in set(red):
        trace = frozenset(u for u, d in in_distances(g, v).items()
                          if d <= r and u in blues)
        if not trace:
            raise InfeasibleError(f"red vertex {v} is not blue-dominated")
        members.add(trace)
    return rescan_greedy(sorted(members, key=sorted), blues)


@given(redblue_instances())
# two instances where a blue dominator smaller than the greedy cover exists
@example((Digraph(6, [(0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (3, 1), (3, 2),
                      (4, 1), (4, 3), (4, 5)]),
          [0, 2, 3, 4, 5], [0, 1, 4], 1))
@example((Digraph(10, [(0, 2), (1, 7), (2, 7), (2, 8), (3, 7), (4, 2), (6, 9),
                       (7, 4), (8, 4), (8, 9), (9, 5), (9, 7)]),
          range(10), [0, 1, 2, 3, 4, 5, 6, 8, 9], 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_redblue_gate_matches_ungated_reference(instance):
    g, red, blue, r = instance
    try:
        expected = _rescan_redblue(g, red, blue, r)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            redblue_dominate_approx(g, red, blue, r)
        return
    d = redblue_dominate_approx(g, red, blue, r)
    assert d == expected
    assert verify_dominating(g, d, r, red) and d <= set(blue)


def rescan_greedy(members, blues):
    """Reference: the greedy cover that recounts every gain on every pick."""
    remaining = list(range(len(members)))
    chosen = set()
    while remaining:
        gain = {
            b: sum(1 for i in remaining if b in members[i]) for b in blues
        }
        b = max(blues, key=lambda x: (gain[x], -x))
        if gain[b] == 0:
            raise InfeasibleError("greedy cover stalled: some set has no blue member")
        chosen.add(b)
        remaining = [i for i in remaining if b not in members[i]]
    return frozenset(chosen)


def _cover_outcome(fn, members, blues):
    try:
        return fn(members, blues)
    except InfeasibleError:
        return "stalled"


@given(
    st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=12),
    st.lists(st.integers(0, 9), min_size=1, max_size=10),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_lazy_greedy_matches_rescan(members, blues):
    # small universes make gain ties common; members may hold non-blue
    # vertices, be empty, or repeat, and blues may repeat
    assert _cover_outcome(_greedy_hitting_set, members, blues) == \
        _cover_outcome(rescan_greedy, members, blues)


@given(
    st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=12, unique=True),
    st.lists(st.integers(0, 9), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_lazy_greedy_ignores_the_order_of_the_members(members, blues, rnd):
    # red-blue hands the greedy its deduplicated traces in set order: the
    # picks depend only on gain counts and vertex ids
    shuffled = list(members)
    rnd.shuffle(shuffled)
    assert _cover_outcome(_greedy_hitting_set, shuffled, blues) == \
        _cover_outcome(_greedy_hitting_set, sorted(members, key=sorted), blues)


def test_lazy_greedy_ties_and_stall():
    # 1 and 2 both hit two sets: the smaller index wins, then 3 is needed
    members = [frozenset({1, 2}), frozenset({1, 2}), frozenset({3})]
    assert _greedy_hitting_set(members, [3, 2, 1]) == frozenset({1, 3})
    assert rescan_greedy(members, [3, 2, 1]) == frozenset({1, 3})
    # stale gains: 5 starts best, then 6 and 7 tie on what is left
    members = [frozenset({5, 6}), frozenset({5, 7}), frozenset({5}),
               frozenset({6, 8}), frozenset({7, 8})]
    blues = [5, 6, 7, 8]
    assert _greedy_hitting_set(members, blues) == rescan_greedy(members, blues)
    # the second set has no blue member: both stall
    for fn in (_greedy_hitting_set, rescan_greedy):
        with pytest.raises(InfeasibleError):
            fn([frozenset({0}), frozenset({4})], [0, 1])


# ---------------------------------------------------------------------------
# strongly connected domination


def test_scds_bidirected_star():
    arcs = [(0, i) for i in range(1, 5)] + [(i, 0) for i in range(1, 5)]
    g = Digraph(5, arcs)
    assert scds_approx(g, 1) == frozenset({0})


def scds_exact_enum(g, r, max_size):
    """Smallest strongly connected distance-r dominator, by enumeration."""
    from itertools import combinations

    for size in range(1, max_size + 1):
        for s in combinations(range(g.n), size):
            if verify_strongly_connected(g, s) and verify_dominating(g, s, r):
                return frozenset(s)
    return None


def test_scds_cycle():
    g = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    result = scds_approx(g, 1)
    assert verify_dominating(g, result, 1)
    assert verify_strongly_connected(g, result)
    # the only strongly connected induced subgraphs of a directed cycle
    # are singletons and the whole cycle, so the optimum is everything
    assert scds_exact_enum(g, 1, 5) is None
    assert len(result) == 6


def test_scds_requires_strong_connectivity():
    with pytest.raises(InfeasibleError):
        scds_approx(directed_path(4), 1)


def test_scds_distance_table_cap(monkeypatch):
    from sparsedigraph import domination

    cycle = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    monkeypatch.setattr(domination, "MAX_SCDS_TABLE_CELLS", 35)  # n = 6: 36 cells
    # the cap is checked before any table is built
    monkeypatch.setattr(domination, "_bfs_each", None)
    with pytest.raises(SizeCapError, match="36 distance table cells exceed cap 35"):
        scds_approx(cycle, 1)
    # the empty graph and a graph that is not strongly connected keep their answers
    assert scds_approx(Digraph(0), 1) == frozenset()
    with pytest.raises(InfeasibleError):
        scds_approx(directed_path(7), 1)


def test_scds_random_strong_instances():
    found = 0
    seed = 0
    ratios = []
    while found < 8 and seed < 300:
        seed += 1
        n = 6 + (seed % 9)
        g = random_digraph(n, min(3 * n, n * (n - 1)), seed)
        if not verify_strongly_connected(g, range(n)):
            continue
        found += 1
        result = scds_approx(g, 2)
        assert verify_dominating(g, result, 2)
        assert verify_strongly_connected(g, result)
        opt = scds_exact_enum(g, 2, 3)
        if opt is not None:
            ratios.append(len(result) / len(opt))
    assert found >= 5
    # sizes vs the enumeration oracle are recorded, not gated
    print("scds size ratios vs oracle:", [round(x, 2) for x in ratios])


def _scds_shortest_path_stitch(g, r):
    """The stitch that ran two fresh shortest-path searches per core
    vertex, kept as the reference for the one along ``dist_from``:
    returns (set, k_guess, center)."""
    dist_from = [out_distances(g, v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        best = best_center = None
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
                for path in (shortest_path(g, center, w), shortest_path(g, w, center)):
                    stitched.update(path)
            if best is None or len(stitched) < len(best):
                best, best_center = frozenset(stitched), center
        if best is not None:
            return best, k, best_center
    raise AssertionError("no radius produced a feasible ball")


@st.composite
def strong_hosts(draw):
    """A random digraph, bidirected or not, plus the Hamiltonian cycle
    0 -> 1 -> ... -> n-1 -> 0: strongly connected."""
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    if draw(st.booleans()):
        arcs |= {(v, u) for u, v in arcs}
    return Digraph(n, arcs | {(i, (i + 1) % n) for i in range(n)})


@given(strong_hosts(), st.integers(1, 2))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_scds_stitch_matches_shortest_path_reference(g, r):
    stats = {}
    result = scds_approx(g, r, stats_out=stats)
    assert (result, stats["k_guess"], stats["center"]) == _scds_shortest_path_stitch(g, r)
