#!/usr/bin/env python3
"""Distance-r domination: VC dimension, red-blue approximation, and the
strongly connected variant.

Run:  python3 demos/04_domination.py
"""
import random

from sparsedigraph import (
    Digraph,
    bidirected_clique,
    neighborhood_complexity,
    random_digraph,
    redblue_dominate_approx,
    redblue_exact_enum,
    scds_approx,
    vc_dimension_distance_r,
    verify_dominating,
    verify_strongly_connected,
)

# In-neighborhood set systems of sparse digraphs have tiny VC dimension;
# bidirected cliques are the degenerate extreme where every in-ball is
# everything and nothing of size 1 shatters.
g = random_digraph(14, 35, seed=2)
dim, witness = vc_dimension_distance_r(g, 2)
print("random n=14: distance-2 VC dimension =", dim, "witness =", sorted(witness))
print("bidirected K_4:", vc_dimension_distance_r(bidirected_clique(4), 1)[0])

rng = random.Random(0)
x = rng.sample(range(14), 6)
print("neighborhood complexity of a 6-subset at r=2:",
      neighborhood_complexity(g, x, 2))

# Red-blue domination: every red vertex must be within distance r of a
# chosen blue vertex.
g = random_digraph(30, 90, seed=5)
red = list(range(0, 30, 2))
blue = list(range(1, 30, 2)) + [0]
chosen = redblue_dominate_approx(g, red, blue, r=2)
opt = redblue_exact_enum(g, red, blue, 2, max_k=4)
print(f"\nred-blue: |D| = {len(chosen)}, optimum = {len(opt) if opt else '>4'}")
assert verify_dominating(g, chosen, 2, red)

# The strongly connected variant stitches the dominator together with
# shortest paths through a guessed center.
cycle = Digraph(8, [(i, (i + 1) % 8) for i in range(8)])
result = scds_approx(cycle, r=1)
print("strongly connected distance-1 dominator of C_8:", sorted(result))
assert verify_dominating(cycle, result, 1)
assert verify_strongly_connected(cycle, result)
