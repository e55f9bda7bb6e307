"""Runnable acceptance suite and the independent definition checkers.

Each criterion function returns a CriterionResult; ``run_all`` prints one
pass/fail line per criterion on stderr, so that ``selftest``'s stdout holds
only its report.  The checks here are deliberately written against the
definitions (path enumeration, direct inequality checks, enumeration
oracles) rather than against the code paths they exercise.
"""
from __future__ import annotations

import math
import random as _random
import sys
from dataclasses import dataclass
from typing import Callable

from .coloring import (
    Augmentation,
    adm_exact,
    compute_wcol_order,
    tfa_augment,
    wcol_exact,
    wcol_infty_exact,
    wcol_of_order,
)
from .digraph import Digraph, in_ball, out_ball, out_distances
from .domination import (
    neighborhood_complexity,
    redblue_dominate_approx,
    vc_dimension_distance_r,
)
from .duality import dominator_or_scattered, kernelize
from .errors import InfeasibleError, InternalInvariantError
from .instances import apex_crown, directed_path, random_digraph
from .oracles import (
    alpha_r_exact,
    dst_exact_enum,
    gamma_r_exact,
    redblue_exact_enum,
    scss_exact_enum,
    verify_dominating,
    verify_scattered,
    verify_strongly_connected,
)
from .steiner import dst_fpt, preprocess_contract, scss_2approx
from .steiner_types import DstInstance


# ---------------------------------------------------------------------------
# independent definition checkers


def check_augmentation(g: Digraph, aug: Augmentation) -> list[str]:
    """Check the five defining conditions of a depth-r transitive
    fraternal augmentation directly against the base graph.

    Returns human-readable violation messages; an empty list means pass.
    """
    problems = []
    r = aug.depth
    layers = aug.layers
    if len(layers) != r:
        return [f"expected {r} layers, found {len(layers)}"]

    # (1) the first layer re-orients the underlying edges of g
    base_pairs = {frozenset(p) for p in g.underlying_edges()}
    first_pairs = {frozenset(a) for a in layers[0]}
    if base_pairs != first_pairs:
        problems.append("layer 1 is not a re-orientation of the base arcs")

    dist = [out_distances(g, v, cap=r) for v in range(g.n)]

    def joined(u, v, cap):
        return dist[u].get(v, r + 1) <= cap or dist[v].get(u, r + 1) <= cap

    # (2) every layer-i arc joins vertices linked by a base path <= i
    for i, layer in enumerate(layers, start=1):
        for (u, v) in layer:
            if not joined(u, v, i):
                problems.append(f"arc ({u},{v}) in layer {i} has no base path")

    # (3) no antiparallel pair anywhere in the union
    union = frozenset().union(*layers)
    for (u, v) in union:
        if (v, u) in union:
            problems.append(f"antiparallel pair {u},{v} in the union")
            break

    prefix: list[set] = []
    acc: set = set()
    for layer in layers:
        acc |= set(layer)
        prefix.append(set(acc))

    def pair_present(u, v, upto):
        return (u, v) in prefix[upto - 1] or (v, u) in prefix[upto - 1]

    outs = [
        {v: [w for (x, w) in layer if x == v] for v in range(g.n)}
        for layer in layers
    ]
    ins = [
        {v: [x for (x, w) in layer if w == v] for v in range(g.n)}
        for layer in layers
    ]

    # (4) fraternal and (5) transitive closure conditions
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if i + j > r:
                continue
            for w in range(g.n):
                for u in outs[i - 1][w]:
                    for v in outs[j - 1][w]:
                        if u != v and joined(u, v, i + j) and not pair_present(u, v, i + j):
                            problems.append(
                                f"fraternal pair {u},{v} (via {w}, layers {i}+{j}) missing"
                            )
            for v in range(g.n):
                for u in ins[i - 1][v]:
                    for w in outs[j - 1][v]:
                        if u != w and joined(u, w, i + j) and not pair_present(u, w, i + j):
                            problems.append(
                                f"transitive pair {u},{w} (via {v}, layers {i}+{j}) missing"
                            )
    return problems


# ---------------------------------------------------------------------------
# corpus

CORPUS_SIZE = 100


def corpus_graph(index: int) -> Digraph:
    """Graph #index of the acceptance corpus (seeded, sizes cycling 5..40)."""
    n = 5 + (index * 7) % 36
    m = min((index * 13) % (3 * n), n * (n - 1))
    return random_digraph(n, m, seed=1000 + index)


def corpus() -> list[Digraph]:
    return [corpus_graph(i) for i in range(CORPUS_SIZE)]


@dataclass
class CriterionResult:
    ok: bool
    detail: str = ""


_CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = []


def criterion(name: str):
    def wrap(fn):
        _CRITERIA.append((name, fn))
        return fn

    return wrap


def all_criteria() -> list[tuple[str, Callable[[], CriterionResult]]]:
    """The registered acceptance criteria in report order."""
    return list(_CRITERIA)


def run_all() -> list[CriterionResult]:
    results = []
    for name, fn in _CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res.ok else "FAIL"
        line = f"[{status}] {name}"
        if res.detail:
            line += f" ({res.detail})"
        print(line, file=sys.stderr)
    return results


# ---------------------------------------------------------------------------
# criteria


@criterion("1. apex crowns separate domination from scattering exactly")
def criterion_counterexample_family() -> CriterionResult:
    for n in range(4, 13):
        g = apex_crown(n)
        gamma, witness = gamma_r_exact(g, 1, max_n=100)
        if gamma != n // 2 + n % 2 + 1:
            return CriterionResult(False, f"apex_crown({n}) gamma_1 = {gamma}")
        if not verify_dominating(g, witness, 1):
            return CriterionResult(False, "bad witness")
        alpha, sc = alpha_r_exact(g, 1, max_n=100)
        if alpha != 2 or not verify_scattered(g, sc, 1):
            return CriterionResult(False, f"apex_crown({n}) alpha_1 = {alpha}")
    return CriterionResult(True, "n = 4..12 exact")


@criterion("2. limit weak coloring number of directed paths")
def criterion_path_treedepth() -> CriterionResult:
    for n in range(1, 9):
        val, _ = wcol_infty_exact(directed_path(n))
        if val != math.ceil(math.log2(n + 1)):
            return CriterionResult(False, f"P_{n} gave {val}")
    return CriterionResult(True, "n = 1..8 exact")


@criterion("3. augmentation order guarantee and definition checks")
def criterion_tfa_guarantee() -> CriterionResult:
    checked = 0
    for g in corpus():
        for r in (1, 2, 3):
            aug = tfa_augment(g, r)
            problems = check_augmentation(g, aug)
            if problems:
                return CriterionResult(False, problems[0])
            res = compute_wcol_order(g, r)
            actual = wcol_of_order(g, res.order, r)
            if actual > res.guarantee:
                return CriterionResult(False, f"n={g.n} r={r}: {actual} > {res.guarantee}")
            checked += 1
    return CriterionResult(True, f"{checked} graph/radius pairs")


@criterion("4. neighborhood complexity within the certified bound")
def criterion_neighborhood_complexity() -> CriterionResult:
    checked = 0
    for idx, g in enumerate(corpus()):
        rng = _random.Random(idx)
        x = rng.sample(range(g.n), min(g.n, rng.randint(3, 10)))
        for r in (1, 2, 3):
            res = compute_wcol_order(g, r)
            bound = ((r + 2) * res.guarantee * len(x)) ** res.guarantee
            nu = neighborhood_complexity(g, x, r)
            if nu > bound:
                return CriterionResult(False, f"n={g.n} r={r}: {nu} > bound")
            checked += 1
    return CriterionResult(True, f"{checked} checks")


@criterion("5. distance-r VC dimension within the wcol bound")
def criterion_vc_bound() -> CriterionResult:
    small = [g for g in corpus() if g.n <= 8]
    checked = 0
    for g in small:
        for r in (1, 2):
            dim, _ = vc_dimension_distance_r(g, r)
            c = wcol_exact(g, r)[0]
            if dim > (r + 2) * (2 * c) ** 2:
                return CriterionResult(False, f"n={g.n} r={r}: dim {dim}, wcol {c}")
            checked += 1
    return CriterionResult(True, f"{checked} checks on {len(small)} small graphs")


def _dst_instances() -> list[DstInstance]:
    instances = []
    seed = 0
    cyclic = 0
    while len(instances) < 50:
        seed += 1
        rng = _random.Random(seed + 4000)
        n = rng.randint(5, 11)
        g = random_digraph(n, rng.randint(n, min(3 * n, n * (n - 1))), seed)
        root = rng.randrange(n)
        pool = [v for v in range(n) if v != root]
        terminals = sorted(rng.sample(pool, rng.randint(2, max(2, n // 2))))
        if len(instances) % 4 == 0 and len(terminals) >= 3:
            arcs = set(g.arcs())
            ts = terminals[:3]
            for i in range(3):
                if ts[i] != ts[(i + 1) % 3]:
                    arcs.add((ts[i], ts[(i + 1) % 3]))
            g = Digraph(n, arcs)
        inst = DstInstance(g, root, frozenset(terminals), rng.randint(0, 3))
        instances.append(inst)
        if preprocess_contract(inst)[2] >= 1:
            cyclic += 1
    if cyclic < 10:
        raise InternalInvariantError(f"only {cyclic} instances with terminal cycles")
    return instances


@criterion("6. Steiner branching matches the enumeration oracle")
def criterion_dst() -> CriterionResult:
    agreements = 0
    for inst in _dst_instances():
        res = dst_fpt(inst)  # raises if the node bound breaks
        expect = dst_exact_enum(inst)
        if (res.solution is None) != (expect is None):
            return CriterionResult(False, "decision mismatch")
        if expect is not None and len(res.solution) != len(expect):
            return CriterionResult(False, "size mismatch")
        d = res.degree_threshold
        for budget, nodes in enumerate(res.nodes_per_budget):
            if nodes > (d + 1) ** (budget * (d + 1)):
                return CriterionResult(False, "node bound exceeded")
        agreements += 1
    return CriterionResult(True, f"{agreements} instances agree")


@criterion("7. strongly connected Steiner within factor two")
def criterion_scss() -> CriterionResult:
    done = 0
    seed = 0
    while done < 25 and seed < 500:
        seed += 1
        rng = _random.Random(seed + 6000)
        n = rng.randint(4, 10)
        g = random_digraph(n, rng.randint(2 * n, min(4 * n, n * (n - 1))), seed)
        terminals = frozenset(rng.sample(range(n), rng.randint(2, 3)))
        opt = scss_exact_enum(g, terminals, 3)
        if opt is None:
            continue
        got = scss_2approx(g, terminals, 3)
        if got is None:
            return CriterionResult(False, f"missed feasible seed {seed}")
        if len(got) > 2 * len(opt):
            return CriterionResult(False, f"|got|={len(got)} vs opt {len(opt)}")
        if not verify_strongly_connected(g, terminals | got):
            return CriterionResult(False, "not strongly connected")
        done += 1
    if done < 25:
        return CriterionResult(False, f"only {done} feasible instances")
    return CriterionResult(True, "25 feasible instances within 2x")


@criterion("8. red-blue domination close to optimal")
def criterion_redblue() -> CriterionResult:
    done = 0
    seed = 0
    worst = 0.0
    while done < 30 and seed < 400:
        seed += 1
        rng = _random.Random(seed + 8000)
        n = rng.randint(10, 40)
        g = random_digraph(n, min(3 * n, n * (n - 1)), seed)
        blue = sorted(rng.sample(range(n), max(3, n // 2)))
        red = sorted(rng.sample(range(n), max(3, n // 3)))
        opt = redblue_exact_enum(g, red, blue, 2, max_k=4)
        if opt is None:
            continue
        k = max(len(opt), 1)
        try:
            d = redblue_dominate_approx(g, red, blue, 2)
        except InfeasibleError:
            return CriterionResult(False, "feasible called infeasible")
        if not verify_dominating(g, d, 2, red) or not d <= set(blue):
            return CriterionResult(False, "invalid output")
        gate = 8 * k * math.log2(k + 2)
        worst = max(worst, len(d) / gate)
        if len(d) > gate:
            return CriterionResult(False, f"|D|={len(d)} over gate {gate:.1f} (k={k})")
        done += 1
    if done < 30:
        return CriterionResult(False, f"only {done} feasible instances")
    return CriterionResult(True, f"30 instances, worst gate ratio {worst:.2f}")


@criterion("9. duality branches validate and refutations are real")
def criterion_duality() -> CriterionResult:
    scattered_seen = 0
    for seed in range(30):
        rng = _random.Random(seed + 9000)
        n = rng.randint(5, 14)
        g = random_digraph(n, rng.randint(n, 3 * n), seed)
        r = rng.choice([1, 2])
        k = rng.randint(0, 3)
        targets = frozenset(rng.sample(range(n), rng.randint(1, n)))
        res = dominator_or_scattered(g, targets, r, k)
        if res.kind == "scattered":
            scattered_seen += 1
            if len(res.scattered) != k + 1:
                return CriterionResult(False, "witness size off")
            if not verify_scattered(g, res.scattered, r):
                return CriterionResult(False, "witness not scattered")
            if gamma_r_exact(g, r, targets)[0] <= k:
                return CriterionResult(False, "false refutation")
        else:
            if not verify_dominating(g, res.dominating, r, targets):
                return CriterionResult(False, "invalid dominator")
    return CriterionResult(True, f"30 instances, {scattered_seen} refutations")


@criterion("10. kernelization preserves the domination decision")
def criterion_kernel() -> CriterionResult:
    for seed in range(20):
        rng = _random.Random(seed + 11000)
        n = rng.randint(5, 14)
        g = random_digraph(n, rng.randint(n, 3 * n), seed)
        r = rng.choice([1, 2])
        k = rng.randint(0, 3)
        res = kernelize(g, r, k)
        original = gamma_r_exact(g, r)[0] <= k
        if res.infeasible:
            kernel_decision = False
        else:
            kernel_decision = gamma_r_exact(res.graph, r, max_n=60)[0] <= res.budget
        if kernel_decision != original:
            return CriterionResult(False, f"seed {seed} flipped")
    return CriterionResult(True, "20 instances preserved")


@criterion("11. monotonicity and ball duality across the corpus")
def criterion_monotonicity() -> CriterionResult:
    for idx, g in enumerate(corpus()):
        for r in (1, 2, 3):
            for v in range(g.n):
                ball = out_ball(g, v, r)
                for u in ball:
                    if v not in in_ball(g, u, r):
                        return CriterionResult(False, "ball duality")
    small = [g for g in corpus() if g.n <= 7][:6]
    for g in small:
        keep = g.arcs()[: max(0, g.m - 3)]
        h = Digraph(g.n, keep)
        for r in (1, 2):
            if wcol_exact(h, r)[0] > wcol_exact(g, r)[0]:
                return CriterionResult(False, "wcol not monotone")
            if adm_exact(h, r)[0] > adm_exact(g, r)[0]:
                return CriterionResult(False, "adm not monotone")
    return CriterionResult(True, f"{CORPUS_SIZE} ball checks, {len(small)} exact pairs")
