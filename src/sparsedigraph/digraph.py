"""Core directed graph representation and distance machinery.

Vertices are dense integer indices ``0..n-1``; a digraph is immutable
after construction.  Self-loops are rejected, duplicate arcs are
rejected, and antiparallel pairs (u,v),(v,u) are two distinct arcs.
Arcs are stored once, as sorted adjacency tuples; graphs derived from
another digraph skip the constructor's checks (see ``Digraph._fill``).
All higher-level algorithms in this package operate on these values,
so everything here is deliberately small and heavily exercised.

The plain-text exchange format is::

    # optional comment lines
    digraph <n> <m>
    <u> <v>          (m arc lines, 0 <= u,v < n, u != v)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .errors import SizeCapError, _check_radius, _check_vertices


class Digraph:
    """Immutable digraph stored as sorted out- and in-adjacency tuples.

    Sorting makes every traversal in the package deterministic without
    further care.  The tuples are the only arc store, so ``has_arc(u, v)``
    scans u's out-list in O(out-degree), and ``underlying_neighbors(v)``
    merges v's two lists on each call.  ``_derived`` holds data other
    modules compute from the graph (keyed by name and parameters), so it
    is computed once per graph and freed with it.
    """

    __slots__ = ("n", "m", "_out", "_in", "_derived")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arc_set = set()
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (u, v) in arc_set:
                raise ValueError(f"duplicate arc ({u},{v})")
            arc_set.add((u, v))
            out[u].append(v)
        for heads in out:
            heads.sort()
        self._fill(n, out)

    def _fill(self, n: int, out: Sequence[Sequence[int]]) -> "Digraph":
        """Set every slot from the out-lists ``out``; returns self.

        Derived graphs are built as ``Digraph.__new__(Digraph)._fill(n, out)``,
        skipping ``__init__``'s checks: each ``out[u]`` must be ascending,
        free of duplicates and of u, with entries in ``0..n-1``.  The tails
        are visited in ascending order, so the in-lists come out sorted.
        Package code builds these: ``contract`` and ``induced_subgraph``
        here and the kernel graph in ``duality``.
        """
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, heads in enumerate(out):
            for v in heads:
                inc[v].append(u)
        self.n = n
        self._out = tuple(map(tuple, out))
        self._in = tuple(map(tuple, inc))
        self.m = sum(map(len, self._out))
        self._derived: dict = {}
        return self

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs in sorted order."""
        return [(u, v) for u, heads in enumerate(self._out) for v in heads]

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._out[u]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def underlying_neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in the underlying undirected graph, ascending,
        merged from v's two lists on each call: no caller reads one twice."""
        return tuple(sorted({*self._out[v], *self._in[v]}))

    def underlying_edges(self) -> list[tuple[int, int]]:
        """Unordered pairs of the underlying undirected graph, each once."""
        return [(u, v) for u in range(self.n) for v in self.underlying_neighbors(u) if u < v]

    def reverse(self) -> "Digraph":
        """The digraph with every arc flipped, in O(1): it shares our
        adjacency tuples swapped (its out-lists are our in-lists, which
        ``_fill`` would rebuild as they are), but not ``_derived``."""
        rev = Digraph.__new__(Digraph)
        rev.n, rev.m = self.n, self.m
        rev._out, rev._in = self._in, self._out
        rev._derived = {}
        return rev

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


class LinearOrder:
    """A permutation of 0..n-1 with O(1) position lookup.

    ``seq[i]`` is the vertex at position i (position 0 is the smallest
    element of the order); ``position(v)`` inverts that.
    """

    __slots__ = ("seq", "_pos")

    def __init__(self, seq: Sequence[int]):
        seq = tuple(seq)
        n = len(seq)
        pos = [-1] * n
        for i, v in enumerate(seq):
            if not (0 <= v < n) or pos[v] != -1:
                raise ValueError("sequence is not a permutation of 0..n-1")
            pos[v] = i
        self.seq = seq
        self._pos = tuple(pos)

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(range(n))

    def position(self, v: int) -> int:
        return self._pos[v]

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seq)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearOrder) and self.seq == other.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __repr__(self) -> str:
        return f"LinearOrder({list(self.seq)})"


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components with per-component directed diameters.

    ``component_of[v]`` is the id of v's component; ``components[i]`` lists
    the members of component i (components are numbered by their smallest
    member, ascending).  ``diameters[i]`` is the largest directed distance
    between an ordered pair of vertices of component i, measured inside the
    component; singletons have diameter 0.  The diameters cost one search
    per vertex of every component with two or more members, so they are
    computed from ``graph``, the decomposed graph, on first read: a caller
    that needs only the components pays for Tarjan's pass alone.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    graph: Digraph = field(repr=False, compare=False)

    @cached_property
    def diameters(self) -> tuple[int, ...]:
        found = []
        for comp in self.components:
            members = frozenset(comp)
            diam = 0
            if len(comp) > 1:
                for v in comp:
                    dist = out_distances(self.graph, v, within=members)
                    diam = max(diam, max(dist.values()))
            found.append(diam)
        return tuple(found)


# ---------------------------------------------------------------------------
# distance-bounded neighborhoods


def _bfs(adj, sources: Iterable[int], cap: Optional[int] = None,
         within=None, blocked=None) -> dict[int, int]:
    """Layered BFS from ``sources``: every vertex reached, with its distance.

    ``adj(x)`` gives the vertices one step from x, so ``g.out_neighbors``
    searches along the arcs and ``g.in_neighbors`` against them.  Sources
    sit at distance 0 and are always entered.  Any other vertex is entered
    only when it lies in ``within`` (if given) and outside ``blocked`` (if
    given): paths never leave ``within`` and never pass through a blocked
    vertex, which is how callers delete vertices without building a new
    graph.  Vertices farther than ``cap`` are left out.  The dict lists
    the vertices in discovery order.  Costs O(sum of out-degrees under
    ``adj`` of the vertices closer than ``cap``), one dict and at most two
    set lookups per arc scanned.  Callers that search once per source
    take their tables from ``_bfs_each`` instead.
    """
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    d = 0
    while frontier and (cap is None or d < cap):
        d += 1
        nxt = []
        for x in frontier:
            for y in adj(x):
                if (y not in dist and (within is None or y in within)
                        and (blocked is None or y not in blocked)):
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def _bfs_each(adj: Sequence[Sequence[int]], sources: Iterable[int],
              cap: Optional[int] = None,
              rank: Optional[Sequence[int]] = None) -> Iterator[dict[int, int]]:
    """For each source s in turn, the table ``_bfs`` gives for ``(s,)``:
    every vertex within ``cap`` steps of s with its distance, in discovery
    order.

    ``adj`` is an adjacency tuple, ``g._out`` to search along the arcs and
    ``g._in`` against them; sources must lie in ``0..n-1``, since a
    negative index would read another vertex's list.  With ``rank``, the
    search from s enters only vertices y with ``rank[y] > rank[s]``: walking
    the sources in rank order, that is ``_bfs`` with every source so far
    blocked.  Each table costs what ``_bfs`` costs for it, without the
    call or a method call per vertex: per arc, one ``rank is None`` test,
    one lookup in the table and, with ``rank``, one comparison.
    """
    last = len(adj) if cap is None else cap  # no path is longer than n - 1
    for s in sources:
        dist = {s: 0}
        frontier = [s]
        d = 0
        low = None if rank is None else rank[s]
        while frontier and d < last:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if (rank is None or rank[y] > low) and y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        yield dist


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first (the vertex sets
    of the bitmask searches in ``coloring`` and ``minors``)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency_masks(g: Digraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighborhoods of every vertex as bitmasks, the
    adjacency of the bitmask searches."""
    out_mask = [0] * g.n
    in_mask = [0] * g.n
    for u, v in g.arcs():
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return out_mask, in_mask


def _mask_reach(masks: Sequence[int], start: int, allowed: int,
                steps: Optional[int]) -> int:
    """Bitmask of the vertices reached from the bitmask ``start`` in at
    most ``steps`` moves along ``masks`` (no limit when None), entering
    only vertices of ``allowed``; ``start`` itself is always included,
    as ``_bfs`` includes its sources."""
    seen = frontier = start
    d = 0
    while frontier and (steps is None or d < steps):
        d += 1
        nxt = 0
        for v in _bits(frontier):
            nxt |= masks[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def out_ball(g: Digraph, v: int, r: int, within: Optional[frozenset] = None) -> frozenset:
    """Vertices reachable from v by a directed path of length <= r.

    Always contains v itself.  If ``within`` is given, paths may only use
    vertices of that set.  ValueError, checked in this order: r < 0, v
    outside ``0..n-1``, v outside ``within``.
    """
    return frozenset(_search(g, v, g.out_neighbors, r, within))


def in_ball(g: Digraph, v: int, r: int, within: Optional[frozenset] = None) -> frozenset:
    """Vertices that reach v by a directed path of length <= r, inside
    ``within`` if given; ValueError as for ``out_ball``."""
    return frozenset(_search(g, v, g.in_neighbors, r, within))


def _search(g: Digraph, v: int, adj, cap: Optional[int],
            within: Optional[frozenset]) -> dict[int, int]:
    """``_bfs`` from v alone, after the checks every public search makes,
    in this order: a given ``cap`` is a radius (``_check_radius``), v lies
    in ``0..n-1``, and v lies in ``within`` when that is given.  Public
    searches call this, never each other, so a traced run times each in
    its own span."""
    if cap is not None:
        _check_radius(cap)
    _check_vertices(g.n, (v,))
    if within is not None and v not in within:
        raise ValueError("start vertex not in the allowed set")
    return _bfs(adj, (v,), cap, within)


def out_distances(g: Digraph, v: int, cap: Optional[int] = None,
                  within: Optional[frozenset] = None) -> dict[int, int]:
    """BFS distances from v along arcs, inside ``within`` if given;
    vertices past ``cap`` are omitted.  ValueError, checked in this
    order: cap < 0, v outside ``0..n-1``, v outside ``within``."""
    return _search(g, v, g.out_neighbors, cap, within)


def in_distances(g: Digraph, v: int, cap: Optional[int] = None) -> dict[int, int]:
    """BFS distances towards v (i.e. from v in the reversed digraph).
    ValueError for cap < 0, then for v outside ``0..n-1``."""
    return _search(g, v, g.in_neighbors, cap, None)


def shortest_path(g: Digraph, u: int, v: int,
                  within: Optional[frozenset] = None) -> Optional[list[int]]:
    """One shortest directed u->v path inside ``within`` (if given) as a
    vertex list, or None.

    Each vertex's predecessor is its in-neighbor one step closer to u that
    ``_bfs`` discovered first, so the result is deterministic.  ValueError,
    checked in this order: u outside ``0..n-1``, u outside ``within``, v
    outside ``0..n-1``.
    """
    dist = _search(g, u, g.out_neighbors, None, within)
    _check_vertices(g.n, (v,))
    if v not in dist:
        return None
    return _walk_back(g, dist, {x: i for i, x in enumerate(dist)}, v)


def _walk_back(g: Digraph, dist: dict[int, int], rank: dict[int, int], v: int) -> list[int]:
    """The path ``shortest_path`` returns, read from the ``_bfs`` table
    ``dist`` of its start (v must be in it) and ``rank``, each vertex's
    index in ``dist``, so callers holding both search and rank nothing."""
    path = [v]
    while dist[path[-1]]:
        y = path[-1]
        path.append(min((x for x in g.in_neighbors(y) if dist.get(x) == dist[y] - 1),
                        key=rank.__getitem__))
    return path[::-1]


# ---------------------------------------------------------------------------
# strongly connected components


def scc(g: Digraph) -> SccDecomposition:
    """Tarjan's algorithm (iterative); the diameters are read on demand."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, None)]  # (v, v's out-neighbours not yet scanned)
        while work:
            v, heads = work.pop()
            if heads is None:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                heads = iter(g.out_neighbors(v))
            for w in heads:
                if index[w] == -1:
                    work += ((v, heads), (w, None))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    comps.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    comps.sort(key=lambda c: c[0])
    component_of = [0] * n
    for cid, comp in enumerate(comps):
        for v in comp:
            component_of[v] = cid
    return SccDecomposition(
        component_of=tuple(component_of),
        components=tuple(tuple(c) for c in comps),
        graph=g,
    )


# ---------------------------------------------------------------------------
# graph surgery


def contract(g: Digraph, partition: Iterable[Iterable[int]],
             dead: Iterable[int] = ()) -> tuple[Digraph, list[int]]:
    """Contract each block of ``partition`` to a single vertex.

    Blocks must be disjoint subsets of the vertex set; vertices outside the
    blocks stay singletons.  Arcs are projected, self-loops dropped and
    parallels deduplicated.  Arcs at a vertex of ``dead`` are dropped
    first, so dead vertices become isolated husks; with no blocks this is
    ``remove_vertices``.  Returns the contracted digraph and the old-to-new
    vertex mapping.  New indices follow the smallest old index of each
    block.  If every block is a singleton and no dead vertex has an arc,
    ``g`` itself comes back with the identity mapping: nothing is built.

    Cost: one remap per row, and a set and a sort only for the rows that
    touch a merged or dead vertex (its own and its in-neighbours').  A
    vertex outside every block keeps its rank among the leaders, so the
    mapping is increasing on such vertices and the other rows, remapped
    entry by entry, stay sorted; with no merged block they are shared.
    """
    blocks = [sorted(set(b)) for b in partition]
    seen: set[int] = set()
    for b in blocks:
        for v in b:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"partition blocks overlap at vertex {v}")
            seen.add(v)
    dead = frozenset(dead)
    _check_vertices(g.n, sorted(dead))
    merged = [b for b in blocks if len(b) > 1]
    mapping = list(range(g.n))
    count = g.n
    if merged:
        for b in merged:
            for v in b:
                mapping[v] = b[0]
        count = 0
        for v, lead in enumerate(mapping):
            if lead == v:
                mapping[v] = count
                count += 1
            else:  # lead < v, so mapping[lead] is already its new index
                mapping[v] = mapping[lead]
    elif not any(g._out[v] or g._in[v] for v in dead):
        return g, mapping
    moved = dead.union(*merged)
    touched = moved.union(*(g._in[v] for v in moved))
    out: list[Sequence[int]] = [()] * count
    for u, heads in enumerate(g._out):
        if u not in touched:
            out[mapping[u]] = [mapping[v] for v in heads] if merged else heads
    proj: dict[int, set[int]] = {}
    for u in touched - dead:
        proj.setdefault(mapping[u], set()).update(
            mapping[v] for v in g._out[u] if v not in dead)
    for a, heads in proj.items():
        heads.discard(a)  # a -> a was inside a block
        out[a] = sorted(heads)
    return Digraph.__new__(Digraph)._fill(count, out), mapping


def induced_subgraph(g: Digraph, vertices: Iterable[int]) -> tuple[Digraph, list[int]]:
    """Induced subgraph on ``vertices``; returns (subgraph, new-to-old map).
    If every vertex is kept, ``g`` itself comes back with the identity map."""
    old = sorted(set(vertices))
    _check_vertices(g.n, old)
    if len(old) == g.n:
        return g, old
    new_of = {v: i for i, v in enumerate(old)}
    out = [[new_of[v] for v in g._out[u] if v in new_of] for u in old]
    return Digraph.__new__(Digraph)._fill(len(old), out), old


def remove_vertices(g: Digraph, removed: Iterable[int]) -> Digraph:
    """Same vertex set, but all arcs touching ``removed`` are dropped.

    Keeping the indexing intact (removed vertices stay as isolated husks)
    lets callers mix results from G and G - X without renumbering.  If
    no removed vertex has an arc, ``g`` itself comes back.
    """
    return contract(g, (), removed)[0]


# ---------------------------------------------------------------------------
# degeneracy


def _peel_lists(neighbors: Sequence[Collection[int]]) -> tuple[list[int], list[list[int]]]:
    """Min-degree peel: ``(removed, later)``, the vertices in removal
    order, and for each vertex v the entries of ``neighbors[v]`` still
    live when v is removed, in list order.

    ``neighbors[v]`` lists v's neighbors, repeats counting with
    multiplicity, and v appears in ``neighbors[u]`` as often as u in
    ``neighbors[v]``; a ``set`` is read in its iteration order.  The
    lists are only read, so the augmentation's partner sets are peeled
    as they are, with no copy.
    ``len(later[v])`` is v's degree at its removal, so the degrees in
    removal order are ``[len(later[v]) for v in removed]``.  Without
    repeats, ``later[v]`` is v's out-list in the orientation towards the
    vertices removed after it.  Rows need not be ascending: row order
    moves only the order within each ``later[v]``, never ``removed`` or
    the set ``later[v]`` holds, so ``coloring.tfa_augment`` keeps its
    layers unsorted and never sorts them.  Ascending rows give ascending
    live lists, ready for ``Digraph._fill``.

    Each step removes the live vertex of smallest current degree, ties
    broken towards the smallest index.  A bucket queue (Matula and Beck
    1983) holds one min-heap of vertex ids per degree; a vertex enters
    the bucket of every degree it takes, and entries whose vertex has
    since moved lower or been removed (degree set to -1) are skipped when
    popped.  ``low`` never exceeds the smallest live degree: it rises one
    empty bucket at a time and falls only to a degree a removal produced,
    so it moves O(n + m) times, and the heaps make the peel
    O(n + m log n).  The live entries are collected in the same loop that
    lowers their degrees, so no second pass reads the lists.
    """
    n = len(neighbors)
    deg = [len(a) for a in neighbors]
    # filled in ascending v, every bucket starts as a valid heap
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    removed: list[int] = []
    later: list[list[int]] = [[]] * n  # every slot is replaced
    low = 0
    for _ in range(n):
        bucket = buckets[low]
        while True:
            while not bucket:
                low += 1
                bucket = buckets[low]
            v = heappop(bucket)
            if deg[v] == low:
                break
        removed.append(v)
        deg[v] = -1
        live = later[v] = []
        for u in neighbors[v]:
            d = deg[u]
            if d > 0:
                d -= 1
                deg[u] = d
                heappush(buckets[d], u)
                live.append(u)
                if d < low:
                    low = d
    return removed, later


def _smallest_last(und: Sequence[Collection[int]]) -> tuple[int, LinearOrder, list[list[int]]]:
    """Smallest-last order (Matula and Beck 1983) of the undirected graph
    whose vertex v has the neighbors ``und[v]``, each listed once.

    Returns ``(d, order, out)``.  ``order`` is the peel reversed, and
    ``out[u]`` keeps u's neighbors earlier in ``order`` (those removed
    after u) in ``und[u]``'s order: ``_peel_lists``' live lists, so only
    their order within each row depends on ``und``'s, and ascending lists
    give out-lists ready for ``Digraph._fill``.  d, the largest degree at
    removal, is the length of the longest of them, so every vertex has at
    most d earlier neighbors.  Like the peel, it only reads ``und`` and
    costs O(n + m log n).
    """
    removed, later = _peel_lists(und)
    return max(map(len, later), default=0), LinearOrder(removed[::-1]), later


def degeneracy(g: Digraph) -> tuple[int, LinearOrder, list[tuple[int, int]]]:
    """Min-degree peel of the underlying graph, as ``_smallest_last`` gives
    it: ``(d, order, orientation)``, the orientation listing the sorted arcs
    from each vertex to its earlier neighbors (out-degree <= d)."""
    d, order, out = _smallest_last([g.underlying_neighbors(v) for v in range(g.n)])
    return d, order, [(u, v) for u, heads in enumerate(out) for v in heads]


# ---------------------------------------------------------------------------
# text format


def format_digraph(g: Digraph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"digraph {g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


# A header's vertex count is checked before ``Digraph`` allocates two
# adjacency lists per vertex, so a short file cannot ask for gigabytes.
MAX_PARSE_N = 1_000_000


def _content_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


def parse_digraph(text: str | list[str]) -> Digraph:
    """Parse the plain-text digraph format; duplicates and loops rejected.

    ``text`` is the file's text, or its stripped lines without blanks and
    comments (``_content_lines``) when a caller has already split them
    out, as ``steiner.parse_dst_instance`` does.  A header with more than
    ``MAX_PARSE_N`` vertices raises SizeCapError.
    """
    lines = _content_lines(text) if isinstance(text, str) else text
    if not lines:
        raise ValueError("empty digraph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "digraph":
        raise ValueError(f"bad header line: {lines[0]!r}")
    n, m = int(head[1]), int(head[2])
    if n > MAX_PARSE_N:
        raise SizeCapError(f"digraph header: n={n} exceeds cap {MAX_PARSE_N}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} arc lines, found {len(lines) - 1}")
    try:
        arcs = [(int(u), int(v)) for u, v in map(str.split, lines[1:])]
    except ValueError:  # name the first bad line, in file order
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad arc line: {ln!r}") from None
            int(parts[0]), int(parts[1])
        raise
    return Digraph(n, arcs)
