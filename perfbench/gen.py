"""Seeded O(m) instance generators and the instance files they write.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed always gives the same arc list.  The package's own
``instances.random_digraph`` is not used: it materialises all n(n-1)
ordered pairs before sampling, which is quadratic in n.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass


def rng_for(seed: int, *parts) -> random.Random:
    """A generator seeded from the workload seed plus a stable label."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def sparse_digraph(n: int, m: int, rng: random.Random,
                   forbid=lambda u, v: False, taken=()) -> list[tuple[int, int]]:
    """m distinct arcs drawn uniformly by rejecting loops and duplicates.

    ``forbid(u, v)`` rejects further arcs; ``taken`` arcs count as
    duplicates but are not returned.  Expected O(m) draws while m is well
    below the number of allowed pairs.
    """
    if m > n * (n - 1) // 4:
        raise ValueError(f"m={m} is too dense for rejection sampling at n={n}")
    seen = set(taken)
    arcs = []
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen or forbid(u, v):
            continue
        seen.add((u, v))
        arcs.append((u, v))
    return arcs


@dataclass
class Graph:
    """A generated digraph with the recipe that reproduces it."""

    recipe: str
    n: int
    arcs: list

    def out_adj(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return adj

    def in_adj(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return adj


def random_graph(n: int, m: int, seed: int, label: str) -> Graph:
    arcs = sparse_digraph(n, m, rng_for(seed, label))
    return Graph(f"sparse n={n} m={m} seed={seed} label={label}", n, arcs)


def package_graph(name: str, g) -> Graph:
    """Wrap a package ``Digraph`` (directed path, apex crown)."""
    return Graph(f"package {name}", g.n, g.arcs())


@dataclass
class SteinerHost:
    """A planted-hub Steiner host.

    Only the hubs (and terminals) have arcs into terminals, and the root
    points at every hub, so the optimum is the smallest set of hubs whose
    arcs, closed under terminal-to-terminal arcs, reach every terminal.
    Every terminal also points at ``back``, which points at the root, so
    hubs plus ``back`` make root and terminals strongly connected.  No
    background arc touches a terminal, so in both directions the solver
    has to branch on a planted vertex rather than run one large leaf.
    """

    graph: Graph
    root: int
    terminals: list
    hubs: list
    back: int


def steiner_host(n: int, k: int, seed: int, label: str) -> SteinerHost:
    """Sparse background with m = 2n arcs plus three planted hubs.

    One terminal 2-cycle gives the solver a component to contract.  Each
    hub points at 9 of the k terminals (11 <= k <= 12), at most one of
    them on the cycle, so it reaches 9 distinct source terminals: more
    than d = 2 * degeneracy = 8 on these hosts, which forces branching.
    Two hubs, and no fewer, reach every terminal, so the optimum is 2 and
    the solver stops after budget 2 (three hubs would make the leaves of
    budget 2 large and the job take seconds).
    """
    rng = rng_for(seed, label)
    picked = rng.sample(range(n), k + 5)
    # the root gets the smallest index so that --scss, which anchors at the
    # smallest of root and terminals, solves the same rooted instance
    picked.remove(root := min(picked))
    back, hubs, terms = picked[0], picked[1:4], picked[4:]
    term_set = set(terms)
    cyc = terms[:2]

    def covers(chosen):
        hit = set().union(*(targets[h] for h in chosen))
        return hit >= set(terms[2:]) and bool(hit & set(cyc))

    while True:  # redraw until the optimum is exactly two hubs
        targets = {}
        for h in hubs:
            pool = terms[2:] + [rng.choice(cyc)]
            targets[h] = rng.sample(pool, 9)
        if (not any(covers([h]) for h in hubs)
                and any(covers([a, b]) for a in hubs for b in hubs if a < b)):
            break
    planted = [(root, h) for h in hubs]
    planted += [(h, t) for h in hubs for t in targets[h]]
    planted += [(cyc[0], cyc[1]), (cyc[1], cyc[0])]
    planted += [(t, back) for t in terms] + [(back, root)]
    planted = list(dict.fromkeys(planted))
    background = sparse_digraph(
        n, 2 * n, rng, forbid=lambda u, v: u in term_set or v in term_set,
        taken=planted,
    )
    graph = Graph(
        f"steiner-host n={n} k={k} seed={seed} label={label}",
        n, planted + background,
    )
    return SteinerHost(graph, root, sorted(terms), sorted(hubs), back)


# ---------------------------------------------------------------------------
# instance files


def write_graph(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# recipe {g.recipe}\ndigraph {g.n} {len(g.arcs)}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in g.arcs))


def read_graph(path: str) -> Graph:
    """Read the plain-text digraph format (comment lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    n = int(rows[0][1])
    return Graph(f"file {os.path.basename(path)}", n,
                 [(int(u), int(v)) for u, v in rows[1:]])


def write_dst(path: str, host: SteinerHost, budget: int) -> None:
    write_graph(path, host.graph)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"root {host.root}\n")
        fh.write("".join(f"terminal {t}\n" for t in host.terminals))
        fh.write(f"budget {budget}\n")


def write_vertices(path: str, vertices) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\n" for v in vertices))


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
