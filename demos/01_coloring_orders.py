#!/usr/bin/env python3
"""Weak coloring orders: exact values, certified pipeline orders, and
low tree-depth colorings.

Run:  python3 demos/01_coloring_orders.py
"""
from sparsedigraph import (
    LinearOrder,
    compute_wcol_order,
    directed_path,
    low_treedepth_coloring,
    random_digraph,
    wcol_infty_exact,
    wcol_of_order,
    wreach_all,
)

# Weak reachability depends on the order.  On the path 0 -> 1 -> 2 we
# put 1 first: then 1 is weakly reachable from both ends, while 0 is
# never the minimum of a path reaching 2.
g = directed_path(3)
order = LinearOrder([1, 0, 2])
sets = wreach_all(g, order, 2)
for v in range(3):
    print(f"weakly 2-reachable from {v}:", sorted(sets[v]))

# The limit value wcol_n acts like tree-depth: directed paths need
# ceil(log2(n+1)) and the optimal order halves the path recursively.
print("\npath family, exact limit values:")
for n in (1, 3, 7, 8):
    value, witness = wcol_infty_exact(directed_path(n))
    print(f"  P_{n}: wcol_inf = {value}, witness order = {list(witness.seq)}")

# For graphs too large to brute force, the augmentation pipeline returns
# an order together with a certified guarantee.
g = random_digraph(40, 110, seed=7)
for r in (1, 2, 3):
    res = compute_wcol_order(g, r)
    achieved = wcol_of_order(g, res.order, r)
    print(
        f"n=40 radius {r}: guarantee {res.guarantee} "
        f"(out-degree {res.max_outdegree}, smaller-neighbors {res.smaller_neighbors}), "
        f"achieved {achieved}"
    )

# Greedy coloring along such an order gives low tree-depth color classes:
# any i <= p classes induce a subgraph with weak coloring number <= i.
colors = low_treedepth_coloring(directed_path(15), p=2)
print("\nlow tree-depth coloring of P_15 (p=2):", colors)
print("colors used:", len(set(colors)))
