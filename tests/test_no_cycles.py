"""Library entry points free their memory by reference counting alone.

``cli.main`` runs with the cyclic collector paused, so a search that kept
itself alive through a reference cycle would hold its memo until the
command ended.  Each call here runs with automatic collection off and
must leave nothing for ``gc.collect()`` to find.
"""
import pytest

from sparsedigraph import duality, steiner
from sparsedigraph.coloring import (
    adm_exact,
    compute_wcol_order,
    low_treedepth_coloring,
    wcol_exact,
    wreach_all,
)
from sparsedigraph.digraph import Digraph
from sparsedigraph.domination import redblue_dominate_approx, scds_approx
from sparsedigraph.duality import kernelize
from sparsedigraph.errors import InternalInvariantError
from sparsedigraph.instances import crown, random_digraph
from sparsedigraph.minors import grad, is_depth_r_minor, top_grad
from sparsedigraph.oracles import alpha_r_exact, gamma_r_exact

from test_cli import cyclic_garbage
from test_steiner import planted_hub_instance

G = random_digraph(9, 20, 1)
G7 = random_digraph(7, 14, 1)
STRONG = Digraph(9, set(G.arcs()) | {(v, u) for u, v in G.arcs()})
HUB = planted_hub_instance(1)


def wcol_order_and_wreach():
    res = compute_wcol_order(G, 2)
    wreach_all(G, res.order, 2)


CALLS = {
    "dst_fpt": lambda: steiner.dst_fpt(HUB),
    "scss_2approx": lambda: steiner.scss_2approx(STRONG, {0, 4, 7}, 4),
    "compute_wcol_order+wreach_all": wcol_order_and_wreach,
    "low_treedepth_coloring": lambda: low_treedepth_coloring(G, 2),
    "wcol_exact": lambda: wcol_exact(G, 2),
    "adm_exact": lambda: adm_exact(G7, 2),
    "gamma_r_exact": lambda: gamma_r_exact(G, 1),
    "alpha_r_exact": lambda: alpha_r_exact(G, 1),
    "is_depth_r_minor": lambda: is_depth_r_minor(crown(3), G, 1),
    "grad": lambda: grad(G7, 1),
    "top_grad": lambda: top_grad(G7, 1),
    "redblue_dominate_approx": lambda: redblue_dominate_approx(G, range(9), range(9), 2),
    "scds_approx": lambda: scds_approx(STRONG, 1),
    "kernelize": lambda: kernelize(G, 1, 3),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_entry_point_leaves_no_cyclic_garbage(name):
    assert cyclic_garbage(CALLS[name]) == 0


def test_reducing_kernelize_leaves_no_cyclic_garbage(monkeypatch):
    # forced thresholds make the core shrink; they are set before the
    # measured call, so the patching itself is not counted
    monkeypatch.setattr(duality, "default_core_threshold", lambda g, r, k: 5)
    monkeypatch.setattr(duality, "complexity_threshold", lambda r, k, c: lambda x: 2)
    arcs = [(0, i) for i in range(1, 8)]  # an out-star
    assert kernelize(Digraph(8, arcs), 1, 1).removed == (4, 3, 2)
    assert cyclic_garbage(lambda: kernelize(Digraph(8, arcs), 1, 1)) == 0


def test_dst_fpt_leaves_no_cyclic_garbage_when_it_raises(monkeypatch):
    monkeypatch.setattr(steiner, "dst_valid", lambda *args: False)

    def failing():
        with pytest.raises(InternalInvariantError, match="invalid set"):
            steiner.dst_fpt(HUB)

    assert cyclic_garbage(failing) == 0
