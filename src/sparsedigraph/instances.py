"""Generators for the named graph families and seeded random instances.

Vertex numbering is fixed so expected solutions in tests stay stable:
crowns list the principal vertices first, then the subdivision vertices
in lexicographic (i, j) order; the apex, when present, comes last.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .digraph import MAX_PARSE_N, Digraph
from .errors import SizeCapError


def directed_path(n: int) -> Digraph:
    """Path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Digraph(n, ((i, i + 1) for i in range(n - 1)))


def crown(q: int) -> Digraph:
    """1-subdivision of a q-clique, all arcs leaving the subdivision vertices.

    Vertices 0..q-1 are the principals; vertex q + rank(i,j) is the
    subdivision vertex of the pair (i, j), i < j.  Total q + q(q-1)/2
    vertices and q(q-1) arcs.
    """
    if q < 2:
        raise ValueError("crown order must be at least 2")
    arcs = []
    idx = q
    for i in range(q):
        for j in range(i + 1, q):
            arcs.append((idx, i))
            arcs.append((idx, j))
            idx += 1
    return Digraph(idx, arcs)


def apex_crown(n: int) -> Digraph:
    """crown(n) plus an apex vertex with an arc to every subdivision vertex.

    The apex gets the last index.  This family separates domination from
    scattering: the minimum distance-1 dominating set has ceil(n/2) + 1
    vertices while no 3 vertices are pairwise 1-scattered.
    """
    if n < 2:
        raise ValueError("apex crown needs order at least 2")
    base = crown(n)
    apex = base.n
    arcs = base.arcs()
    arcs.extend((apex, w) for w in range(n, base.n))
    return Digraph(base.n + 1, arcs)


def bidirected_clique(q: int) -> Digraph:
    """All ordered pairs among q vertices."""
    if q < 1:
        raise ValueError("clique needs at least one vertex")
    return Digraph(q, ((u, v) for u in range(q) for v in range(q) if u != v))


def random_digraph(n: int, m: int, seed: int) -> Digraph:
    """m distinct arcs drawn uniformly without replacement.

    Identical (n, m, seed) always yields the identical graph.  The arcs
    are drawn in O(m) as indices into the n(n-1) pairs (u, v), u != v, in
    lexicographic order: ``random.sample`` picks the same indices from a
    ``range`` as from the materialized list of pairs.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError(f"arc count m={m} is negative")
    if m > n * (n - 1):
        raise ValueError(f"m={m} exceeds the {n * (n - 1)} possible arcs")
    pairs = (divmod(j, n - 1) for j in random.Random(seed).sample(range(n * (n - 1)), m))
    return Digraph(n, ((u, w + (w >= u)) for u, w in pairs))


# family name -> generator, in the order the command line lists them; each
# takes the size, and random_digraph also the arc count and seed
FAMILIES = {
    "path": directed_path,
    "crown": crown,
    "apex-crown": apex_crown,
    "bidirected-clique": bidirected_clique,
    "random": random_digraph,
}


@dataclass(frozen=True)
class InstanceRecipe:
    """A reproducible description of a generated instance.

    A recipe whose graph would have more vertices than any reader accepts,
    ``digraph.MAX_PARSE_N``, raises SizeCapError when it is made.
    """

    family: str
    size: int
    arcs: Optional[int] = None          # random family only
    seed: Optional[int] = None          # random family only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.size < 1:
            raise ValueError("size must be positive")
        if self.family == "random":
            if self.seed is None or self.arcs is None:
                raise ValueError("random recipes need arcs and seed")
        n = self.size  # the vertex count, before anything is built
        if self.family in ("crown", "apex-crown"):
            n += self.size * (self.size - 1) // 2 + (self.family == "apex-crown")
        if n > MAX_PARSE_N:
            raise SizeCapError(f"{self.describe()}: {n} vertices exceed cap {MAX_PARSE_N}")

    def build(self) -> Digraph:
        extra = (self.arcs, self.seed) if self.family == "random" else ()
        return FAMILIES[self.family](self.size, *extra)

    def describe(self) -> str:
        if self.family == "random":
            return f"recipe random n={self.size} m={self.arcs} seed={self.seed}"
        return f"recipe {self.family} {self.size}"
