"""Shared Steiner problem state, kept separate so the enumeration oracle
does not import the solver module it is meant to check."""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .errors import _check_vertices


@dataclass(frozen=True)
class DstInstance:
    """Directed Steiner Tree instance.

    Decide whether some set S of at most ``budget`` non-terminals makes
    every terminal reachable from ``root`` inside G[{root} | S | T].
    """

    graph: Digraph
    root: int
    terminals: frozenset
    budget: int

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.root < g.n):
            raise ValueError(f"root {self.root} out of range")
        _check_vertices(g.n, sorted(self.terminals))
        if self.root in self.terminals:
            raise ValueError("root cannot be a terminal")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        object.__setattr__(self, "terminals", frozenset(self.terminals))
