"""Domination versus scattering: the constructive duality machinery,
domination cores, and the kernelization pipeline.

The central procedure walks a certified weak-coloring order, greedily
dominating the target set while collecting anchor vertices; the anchors
are then inserted into an independence tree whose left chains are
r-scattered.  A long left chain certifies that no small dominating set
exists; otherwise the greedy dominator is returned.  Core reduction and
kernelization iterate that dichotomy with the thresholds taken from the
neighborhood-complexity bound.

The thresholds are astronomically conservative, which is what makes the
procedure provably correct; at desk scale they mean the domination core
is usually the whole vertex set.  Both thresholds accept overrides so
the deeper phases can actually be exercised on crafted instances.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .coloring import compute_wcol_order, wreach_all
from .digraph import (MAX_PARSE_N, Digraph, LinearOrder, _bfs, _bfs_each, induced_subgraph,
                      out_ball, remove_vertices)
from .errors import InternalInvariantError, SizeCapError, _check_radius, _check_vertices
from .minors import grad_lower_bound
from .domination import distance_vector
from .oracles import verify_dominating, verify_scattered


# ---------------------------------------------------------------------------
# projections and closures


def projection(g: Digraph, u: int, anchors, r: int, removed=frozenset()) -> frozenset:
    """Anchor vertices linked to u by a path of length <= r (either
    direction) whose internal vertices avoid the anchor set.

    Paths never touch a vertex of ``removed``, which gives the projection
    in g minus those vertices without building that graph.
    """
    _check_vertices(g.n, (u,))
    anchor_set = frozenset(anchors)
    if u in anchor_set or u in removed:
        raise ValueError("projection source must lie outside the anchor and removed sets")
    if r < 1:
        return frozenset()
    blocked = anchor_set.union(removed)
    found = set()
    for adj in (g.out_neighbors, g.in_neighbors):
        for x in _bfs(adj, (u,), r - 1, blocked=blocked):
            found.update(y for y in adj(x) if y in anchor_set)
    return frozenset(found)


@dataclass(frozen=True)
class ClosureResult:
    """Closure set plus the projection bound it achieves."""

    vertices: frozenset
    xi: int


def closure(g: Digraph, anchors, r: int,
            xi: Optional[int] = None) -> ClosureResult:
    """Find a small set whose removal bounds every projection onto the
    anchors by xi.

    xi defaults to twice the greedy density lower bound; whenever the
    greedy construction blows its size budget (r-1) * xi * |anchors|, xi
    is doubled and the construction restarts.  Removed vertices are
    blocked in the searches rather than cut out of a rebuilt graph.  All
    three contract properties are asserted on the way out.
    """
    anchor_set = frozenset(anchors)
    _check_vertices(g.n, sorted(anchor_set))
    if r < 1:
        raise ValueError("radius must be at least 1")
    if xi is None:
        xi = max(1, math.ceil(2 * grad_lower_bound(g)))

    outside = [v for v in range(g.n) if v not in anchor_set]
    while True:
        budget = (r - 1) * xi * len(anchor_set)
        chosen: set = set()
        while large := [u for u in outside if u not in chosen
                        and len(projection(g, u, anchor_set, r, chosen)) > xi]:
            if len(chosen) >= budget:
                break
            # score every vertex on a qualifying projection path of a large
            # u: dist(u, w) + dist(w, first anchor hit) <= r in one
            # direction, both legs avoiding the anchors and chosen vertices
            blocked = anchor_set | chosen
            to_anchors = (_bfs(g.in_neighbors, anchor_set, r - 1, blocked=blocked),
                          _bfs(g.out_neighbors, anchor_set, r - 1, blocked=blocked))
            score: Counter = Counter()
            for u in large:
                on_path = {u}
                for adj, d_to in zip((g.out_neighbors, g.in_neighbors), to_anchors):
                    on_path.update(w for w, a in _bfs(adj, (u,), r - 1, blocked=blocked).items()
                                   if a + d_to.get(w, r + 1) <= r)
                score.update(on_path)
            chosen.add(max(sorted(score), key=score.__getitem__))
        else:
            result = ClosureResult(vertices=frozenset(chosen), xi=xi)
            if result.vertices & anchor_set:
                raise InternalInvariantError("closure intersects the anchors")
            if len(result.vertices) > budget:
                raise InternalInvariantError("closure exceeded its size budget")
            for u in outside:
                if u in result.vertices:
                    continue
                if len(projection(g, u, anchor_set, r, result.vertices)) > xi:
                    raise InternalInvariantError("closure left a large projection")
            return result
        if xi >= g.n:
            raise InternalInvariantError("no feasible projection bound up to n")
        xi = min(2 * xi, g.n)


# ---------------------------------------------------------------------------
# independence trees


@dataclass
class _Node:
    vertex: int
    left: Optional[int] = None
    right: Optional[int] = None


class IndependenceTree:
    """Binary insertion tree recording shared r-in-ball intersections.

    Inserting a vertex v walks from the root, turning right at nodes whose
    r-in-ball meets v's (some vertex r-dominates both), left otherwise.
    Left chains are therefore r-scattered.

    The walk is not replayed node by node.  The tree keeps, for each
    vertex u, the nodes whose r-in-ball holds u, so the nodes where v's
    walk would turn right are those listed under the members of in_r(v).
    The tree is cut into left spines: maximal left chains, each starting
    at the root or at a right child.  Children come after their parents in
    ``nodes``, so the first node of a spine that turns right is the one
    with the lowest index; reading the lists of in_r(v) once finds it for
    every spine, and the walk jumps from spine to spine through right
    children.  An insertion costs one search, O(|in_r(v)| + the lists
    read + right turns), rather than O(depth).  The lists hold
    sum |in_r(v)| entries over the inserted vertices.
    """

    def __init__(self, g: Digraph, radius: int):
        _check_radius(radius)
        self.graph = g
        self.radius = radius
        self.nodes: list[_Node] = []
        self.sequence: list[int] = []
        self._spine_of: list[int] = []  # node index -> its left spine
        self._tails: list[int] = []  # left spine -> its last node
        self._holders: dict[int, list[int]] = {}  # u -> nodes whose r-in-ball holds u
        self._table: tuple = (0, ([], [], []))

    def _add(self, v: int, spine: int, ball) -> int:
        """Append a node for v, whose r-in-ball is ``ball``, at the end of
        ``spine`` (as its tail's left child), or as the first node of a new
        spine when ``spine`` equals the spine count; returns its index."""
        i = len(self.nodes)
        self.nodes.append(_Node(v))
        self._spine_of.append(spine)
        if spine == len(self._tails):
            self._tails.append(i)
        else:
            self.nodes[self._tails[spine]].left = i
            self._tails[spine] = i
        for u in ball:
            self._holders.setdefault(u, []).append(i)
        return i

    def insert(self, v: int):
        _check_vertices(self.graph.n, (v,))
        self.sequence.append(v)
        ball = _bfs(self.graph.in_neighbors, (v,), self.radius)
        spine_of = self._spine_of
        first: dict[int, int] = {}  # spine -> its first node that turns right
        for u in ball:
            for i in self._holders.get(u, ()):
                s = spine_of[i]
                if i < first.get(s, i + 1):
                    first[s] = i
        spine = 0
        while spine in first:
            node = self.nodes[first[spine]]
            if node.right is None:
                node.right = self._add(v, len(self._tails), ball)
                return
            spine = spine_of[node.right]
        self._add(v, spine, ball)

    def node_count(self) -> int:
        return len(self.nodes)

    def _subtree_table(self) -> tuple[list[int], list[int], list[int]]:
        """Per node i, over the subtree rooted at i: the nodes on its
        longest root-leaf path, its longest right chain and its longest
        left chain (each counted in nodes, chains as in ``max_left_chain``).

        Children are appended after their parent, so sweeping the node
        indices downwards visits every child before its parent: one
        iterative post-order pass, O(nodes), with no recursion.  Nodes are
        only ever appended, so the table is kept until the count changes.
        """
        size = len(self.nodes)
        if self._table[0] == size:
            return self._table[1]
        height = [1] * size
        right = [1] * size
        left = [1] * size
        for i in range(size - 1, -1, -1):
            node = self.nodes[i]
            if node.left is not None:
                a = node.left
                height[i] = max(height[i], 1 + height[a])
                right[i] = max(right[i], right[a])
                left[i] = max(left[i], 1 + left[a])
            if node.right is not None:
                b = node.right
                height[i] = max(height[i], 1 + height[b])
                right[i] = max(right[i], 1 + right[b])
                left[i] = max(left[i], left[b])
        self._table = (size, (height, right, left))
        return self._table[1]

    def height(self) -> int:
        """Nodes on the longest root-leaf path."""
        return self._subtree_table()[0][0] if self.nodes else 0

    def longest_right_chain(self) -> int:
        """Longest pairwise right-descendant chain on a root-leaf path."""
        return self._subtree_table()[1][0] if self.nodes else 0

    def assert_size_law(self):
        """Height-h trees with no right chain of length t hold at most
        h^(t+1) nodes; t is measured as one past the longest chain."""
        h = self.height()
        t = self.longest_right_chain() + 1
        if self.node_count() > h ** (t + 1):
            raise InternalInvariantError(
                f"tree size law violated: {self.node_count()} nodes, "
                f"height {h}, chain bound {t}"
            )


def independence_tree(g: Digraph, sequence, r: int) -> IndependenceTree:
    """Insert the sequence in order; the size law is asserted on exit."""
    tree = IndependenceTree(g, r)
    for v in sequence:
        tree.insert(v)
    tree.assert_size_law()
    return tree


def max_left_chain(tree: IndependenceTree) -> list[int]:
    """Longest root-leaf subsequence of pairwise left descendants.

    Returns the vertices in insertion order; the result is always
    r-scattered and that is asserted before returning.
    """
    if not tree.nodes:
        return []
    value = tree._subtree_table()[2]
    chain = []
    at = 0
    while at is not None:
        node = tree.nodes[at]
        left_val = 1 + value[node.left] if node.left is not None else 1
        right_val = value[node.right] if node.right is not None else 0
        if node.left is not None and left_val >= max(right_val, 2):
            chain.append(node.vertex)
            at = node.left
        elif node.right is not None and right_val > left_val:
            at = node.right
        else:
            chain.append(node.vertex)
            at = None
    if not verify_scattered(tree.graph, chain, tree.radius):
        raise InternalInvariantError("left chain is not scattered")
    return chain


# ---------------------------------------------------------------------------
# dominator or scattered


@dataclass(frozen=True)
class DualityResult:
    """Exactly one of ``dominating`` / ``scattered`` is set.

    ``anchors`` is the greedy anchor sequence, ``order``/``guarantee``
    the certified weak-coloring order it walked.
    """

    kind: str
    dominating: Optional[frozenset]
    scattered: Optional[tuple]
    order: LinearOrder
    guarantee: int
    anchors: tuple
    tree: IndependenceTree


def dominator_or_scattered(g: Digraph, targets, r: int, k: int) -> DualityResult:
    """Either a distance-r dominator of the targets, or an r-scattered
    subset of k+1 targets proving no k-vertex dominator exists.

    The anchors are picked by one walk along the order, each the
    L-smallest target not yet dominated, exactly as a ``min`` over the
    undominated targets picks them.  Besides the order (computed once per
    graph and radius, see ``compute_wcol_order``) and ``wreach_all``, the
    walk costs O(n) plus one r-out-ball per distinct hull vertex.  The
    tree costs one r-in-ball search per anchor, plus the lists it reads
    and its right turns (see ``IndependenceTree``).  The guarantee check
    reads the tree's lists: the nodes listed under u are the anchors u
    r-dominates, so while the check holds they sum to at most n·c
    entries, c the order's guarantee.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    if k < 0:
        raise ValueError("budget must be nonnegative")
    target_set = frozenset(targets)
    _check_vertices(g.n, target_set)

    res = compute_wcol_order(g, 2 * r)
    sets = wreach_all(g, res.order, 2 * r)
    undominated = set(target_set)
    anchors: list[int] = []
    dominating: set = set()
    # undominated only shrinks, so its L-smallest member is the next
    # vertex of the order still in it
    for x in res.order:
        if x not in undominated:
            continue
        anchors.append(x)
        # a hull vertex already dominating had its out-ball taken off
        for y in sets[x] - dominating:
            undominated -= out_ball(g, y, r)
        dominating |= sets[x]

    tree = independence_tree(g, anchors, r)
    # u r-dominates the anchors whose r-in-balls hold it: its tree list
    if max(map(len, tree._holders.values()), default=0) > res.guarantee:
        raise InternalInvariantError(
            "a vertex r-dominates more anchors than the order guarantee"
        )
    chain = max_left_chain(tree)
    if len(chain) >= k + 1:
        kind, dom, witness = "scattered", None, tuple(chain[: k + 1])
        if not verify_scattered(g, witness, r) or not set(witness) <= target_set:
            raise InternalInvariantError("scattered witness failed validation")
    else:
        kind, dom, witness = "dominating", frozenset(dominating), None
        if not verify_dominating(g, dom, r, target_set):
            raise InternalInvariantError("greedy dominator failed validation")
    return DualityResult(
        kind=kind, dominating=dom, scattered=witness,
        order=res.order, guarantee=res.guarantee,
        anchors=tuple(anchors), tree=tree,
    )


# ---------------------------------------------------------------------------
# core reduction


def complexity_threshold(r: int, k: int, c: int) -> Callable[[int], int]:
    """The scattered-set threshold q(x) = (k+1) * ((r+2) c x)^c."""

    def q(x: int) -> int:
        return (k + 1) * ((r + 2) * c * x) ** c

    return q


def default_core_threshold(g: Digraph, r: int, k: int, c: int) -> int:
    """Size below which a target set is accepted as a core outright."""
    xi = max(1, math.ceil(2 * grad_lower_bound(g)))
    q = complexity_threshold(r, k, c)
    return q(((r - 1) * xi + 1) * c * k) * (k + 2)


@dataclass(frozen=True)
class ReduceOutcome:
    """One step of core reduction.

    kind is "no-instance" (with a scattered witness), "small" (the set
    already passes the size threshold), or "removable" (z can be dropped
    while keeping the core property).
    """

    kind: str
    removable: Optional[int] = None
    scattered_witness: Optional[tuple] = None


def reduce_core(g: Digraph, core, r: int, k: int,
                q_fn: Optional[Callable[[int], int]] = None,
                small_threshold: Optional[int] = None) -> ReduceOutcome:
    """Either refute k-domination, accept the core as small, or find a
    removable core vertex.

    Phase 1 alternates weak-reachability hulls with dominator-or-
    scattered calls on the stripped graph until a scattered set beats the
    complexity threshold; phase 2 buckets that set by distance profiles
    towards the hull and picks a crowded bucket.  Both thresholds accept
    overrides for testing; the defaults are the certified ones.
    """
    targets = frozenset(core)
    first = dominator_or_scattered(g, targets, r, k)
    if first.kind == "scattered":
        return ReduceOutcome(kind="no-instance", scattered_witness=first.scattered)
    c = first.guarantee
    if small_threshold is None:
        small_threshold = default_core_threshold(g, r, k, c)
    if len(targets) <= small_threshold:
        return ReduceOutcome(kind="small")
    if q_fn is None:
        q_fn = complexity_threshold(r, k, c)

    hull_sets = wreach_all(g, first.order, r)
    current = frozenset(first.dominating)
    hull: frozenset = frozenset()
    scattered: Optional[tuple] = None
    for _ in range(c):
        hull = frozenset().union(*(hull_sets[y] for y in current))
        stripped = remove_vertices(g, hull)
        q_i = q_fn(len(hull))
        step = dominator_or_scattered(stripped, targets - hull, r, q_i)
        if step.kind == "scattered":
            scattered = step.scattered
            break
        current = hull | step.dominating
    if scattered is None:
        raise InternalInvariantError(
            "core reduction exceeded its iteration bound without a scattered set"
        )

    anchors = sorted(hull)
    buckets: dict[tuple, list[int]] = {}
    for w in scattered:
        buckets.setdefault(distance_vector(g, w, anchors, r), []).append(w)
    crowded = [members for members in buckets.values() if len(members) > k + 1]
    if not crowded:
        raise InternalInvariantError(
            "no distance-profile class exceeded k+1 despite the threshold"
        )
    crowded.sort(key=lambda ms: (-len(ms), min(ms)))
    return ReduceOutcome(kind="removable", removable=min(crowded[0]))


@dataclass(frozen=True)
class CoreResult:
    """Domination core outcome: the core with its removal audit, or a
    refutation witness.  ``iterations`` counts reduction rounds."""

    kind: str  # "core" | "no-instance"
    core: Optional[frozenset] = None
    removed: tuple = ()
    scattered_witness: Optional[tuple] = None
    iterations: int = 0


def domination_core(g: Digraph, r: int, k: int,
                    q_fn: Optional[Callable[[int], int]] = None,
                    small_threshold: Optional[int] = None) -> CoreResult:
    """Shrink V(G) to a domination core by repeated single removals."""
    core = frozenset(range(g.n))
    removed: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        outcome = reduce_core(
            g, core, r, k, q_fn=q_fn, small_threshold=small_threshold
        )
        if outcome.kind == "no-instance":
            return CoreResult(
                kind="no-instance",
                removed=tuple(removed),
                scattered_witness=outcome.scattered_witness,
                iterations=rounds,
            )
        if outcome.kind == "small":
            return CoreResult(
                kind="core", core=core, removed=tuple(removed), iterations=rounds
            )
        core = core - {outcome.removable}
        removed.append(outcome.removable)


# ---------------------------------------------------------------------------
# kernelization


@dataclass(frozen=True)
class KernelResult:
    """Standard-form kernel instance plus its audit trail.

    The kernel decides "k+1 vertices dominate everything in ``graph``"
    if and only if the original instance could be dominated by k.  When
    the original is already refuted the kernel is a fixed trivially
    infeasible instance.
    """

    graph: Digraph
    budget: int
    infeasible: bool
    core_size: int
    removed: tuple
    representatives: tuple
    core: frozenset = frozenset()
    iterations: int = 0
    threshold: int = 0


def kernelize(g: Digraph, r: int, k: int,
              q_fn: Optional[Callable[[int], int]] = None,
              small_threshold: Optional[int] = None) -> KernelResult:
    """Produce an equivalent standard-form distance-r domination instance.

    Vertices outside the core collapse to one representative per
    coverage class (equal r-out-neighborhood traces on the core); two
    fresh vertices and length-r paths translate the annotated instance
    back to plain distance-r domination at budget k+1; a kernel past
    ``MAX_PARSE_N`` vertices raises SizeCapError before they are built.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    if k < 0:
        raise ValueError("budget must be nonnegative")
    if small_threshold is None and g.n:
        c = compute_wcol_order(g, 2 * r).guarantee
        small_threshold = default_core_threshold(g, r, k, c)
    result = domination_core(g, r, k, q_fn=q_fn, small_threshold=small_threshold)
    if result.kind == "no-instance":
        return KernelResult(
            graph=Digraph(k + 2),
            budget=k + 1,
            infeasible=True,
            core_size=0,
            removed=result.removed,
            representatives=(),
            iterations=result.iterations,
            threshold=small_threshold or 0,
        )
    core = result.core
    classes: dict[frozenset, int] = {}
    outside = [v for v in range(g.n) if v not in core]
    for v, ball in zip(outside, _bfs_each(g._out, outside, r)):
        classes.setdefault(core.intersection(ball), v)  # v ascends: the least stays
    reps = tuple(sorted(classes.values()))
    keep = sorted(core | set(reps))
    kernel_n = len(keep) + 2 + (r - 1) * (1 + len(reps))
    if kernel_n > MAX_PARSE_N:
        raise SizeCapError(f"kernel: {kernel_n} vertices exceed cap {MAX_PARSE_N}")
    sub, old_of = induced_subgraph(g, keep)
    # w = sub.n runs a length-r path of fresh vertices to w' = sub.n + 1 and
    # to every kept non-core vertex; each fresh vertex gets the next index
    w = sub.n
    out: list = [*sub._out, [], ()]
    for to in (w + 1, *(v for v, old in enumerate(old_of) if old not in core)):
        prev = w
        for _ in range(r - 1):
            out[prev].append(len(out))
            prev = len(out)
            out.append([])
        out[prev].append(to)
    out[w].sort()  # at r = 1, w' comes first but is w's largest head
    return KernelResult(
        graph=Digraph.__new__(Digraph)._fill(len(out), out),
        budget=k + 1,
        infeasible=False,
        core_size=len(core),
        removed=result.removed,
        representatives=reps,
        core=frozenset(core),
        iterations=result.iterations,
        threshold=small_threshold or 0,
    )
