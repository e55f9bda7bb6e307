"""Golden CLI outputs: stdout must stay byte-identical apart from timing.

Each case runs one subcommand on a small seeded instance and compares the
SHA-256 of its stdout, with the ``timing_ms`` line removed, and its exit
code against values recorded from an earlier, slower implementation.  A
speed-up that changes any answer, order, guess or formatting fails here.
To re-record after an intended output change, print ``_digest(...)`` for
every case and say in the change log why the outputs moved.
"""
import contextlib
import hashlib
import io
import re
from dataclasses import replace

import pytest

from sparsedigraph import Digraph, DstInstance, format_digraph, random_digraph
from sparsedigraph.cli import main
from sparsedigraph.instances import apex_crown
from sparsedigraph.steiner import format_dst_instance
from test_steiner import planted_hub_instance

TIMING_LINE = re.compile(r'^  "timing_ms": .*\n', re.M)


def _bidirected_grid(k: int) -> Digraph:
    """The k x k grid with both arcs along every edge: planar, the paper's
    bounded-expansion class; vertex i * k + j sits in row i, column j."""
    arcs = set()
    for v in range(k * k):
        if v % k + 1 < k:
            arcs |= {(v, v + 1), (v + 1, v)}
        if v + k < k * k:
            arcs |= {(v, v + k), (v + k, v)}
    return Digraph(k * k, arcs)


GRAPHS = {
    "random60-1": lambda: random_digraph(60, 180, 1),
    "random60-2": lambda: random_digraph(60, 180, 2),
    "random60-3": lambda: random_digraph(60, 180, 3),
    "apex10": lambda: apex_crown(10),
    "grid8": lambda: _bidirected_grid(8),
}

# subcommand arguments after the graph path; "RED" is replaced by a file
# listing every third vertex, "BLUE" by one listing every vertex v with
# v % 3 != 2, so RED is a subset of BLUE
COMMANDS = {
    "wcol-r2": ("wcol", "--radius", "2"),
    "wcol-r3": ("wcol", "--radius", "3"),
    "wcol-r4": ("wcol", "--radius", "4"),
    "domset-r1": ("domset", "--radius", "1"),
    "domset-r1-red": ("domset", "--radius", "1", "--red", "RED"),
    "domset-r1-red-blue": ("domset", "--radius", "1", "--red", "RED", "--blue", "BLUE"),
    "domset-r2": ("domset", "--radius", "2"),
    "domset-r2-red": ("domset", "--radius", "2", "--red", "RED"),
    "domset-r2-red-blue": ("domset", "--radius", "2", "--red", "RED", "--blue", "BLUE"),
    "kernel-r1-k3": ("kernel", "--radius", "1", "--budget", "3"),
    "kernel-r2-k3": ("kernel", "--radius", "2", "--budget", "3", "--emit-core"),
}

# (graph, command) -> (exit code, first 16 hex digits of the stdout digest)
EXPECTED = {
    ("random60-1", "wcol-r2"): (0, "acc4825bc97a21a3"),
    ("random60-1", "wcol-r3"): (0, "6258ed4681b9cefc"),
    ("random60-1", "wcol-r4"): (0, "dc7a6548563c9b8a"),
    ("random60-1", "domset-r1"): (0, "429b3fbb1a78809c"),
    ("random60-1", "domset-r1-red"): (0, "885546380111198f"),
    ("random60-1", "domset-r1-red-blue"): (0, "7fcdbdca26460367"),
    ("random60-1", "domset-r2"): (0, "249f0123d2ae682f"),
    ("random60-1", "domset-r2-red"): (0, "19c0dec9c73c8b1f"),
    ("random60-1", "domset-r2-red-blue"): (0, "19c0dec9c73c8b1f"),
    ("random60-1", "kernel-r1-k3"): (1, "7044f7c7c23bfb5c"),
    ("random60-1", "kernel-r2-k3"): (0, "1e4dc7f17968e933"),
    ("random60-2", "wcol-r2"): (0, "6b6ab58028416b9a"),
    ("random60-2", "wcol-r3"): (0, "057f140014cc8f74"),
    ("random60-2", "wcol-r4"): (0, "a8cc095198d10c03"),
    ("random60-2", "domset-r1"): (0, "a8e25dcd636e5a12"),
    ("random60-2", "domset-r1-red"): (0, "15a82c7e234ec10c"),
    ("random60-2", "domset-r1-red-blue"): (0, "756bf30398c2fcfe"),
    ("random60-2", "domset-r2"): (0, "7846da240f534c6c"),
    ("random60-2", "domset-r2-red"): (0, "2800cc185db14a24"),
    ("random60-2", "domset-r2-red-blue"): (0, "c26c61bd11534129"),
    ("random60-2", "kernel-r1-k3"): (1, "1d8ac4b1784673bc"),
    ("random60-2", "kernel-r2-k3"): (0, "f2adbe1bf3d99b1e"),
    ("random60-3", "wcol-r2"): (0, "ca7a361baef0f8da"),
    ("random60-3", "wcol-r3"): (0, "fa1b184454f1efbc"),
    ("random60-3", "wcol-r4"): (0, "08845c4aa5411caa"),
    ("random60-3", "domset-r1"): (0, "35a374bf84abdea3"),
    ("random60-3", "domset-r1-red"): (0, "6cfc5cfdc0fb1022"),
    ("random60-3", "domset-r1-red-blue"): (0, "015c3896ec1fd6d2"),
    ("random60-3", "domset-r2"): (0, "922ca7291524d644"),
    ("random60-3", "domset-r2-red"): (0, "3bd0499509180861"),
    ("random60-3", "domset-r2-red-blue"): (0, "077a0d95f5be4671"),
    ("random60-3", "kernel-r1-k3"): (1, "496ae152cc13b6d0"),
    ("random60-3", "kernel-r2-k3"): (0, "a206724b0dc463f2"),
    ("apex10", "wcol-r2"): (0, "bf04240516b6d250"),
    ("apex10", "wcol-r3"): (0, "a1dec0d63ad5de2b"),
    ("apex10", "wcol-r4"): (0, "3ac8b4d83cee3f78"),
    ("apex10", "domset-r1"): (0, "0951840234cec72a"),
    ("apex10", "domset-r1-red"): (0, "68562fa238b9e817"),
    ("apex10", "domset-r1-red-blue"): (0, "68562fa238b9e817"),
    ("apex10", "domset-r2"): (0, "534b0d17ad4b0f1d"),
    ("apex10", "domset-r2-red"): (0, "534b0d17ad4b0f1d"),
    ("apex10", "domset-r2-red-blue"): (0, "534b0d17ad4b0f1d"),
    ("apex10", "kernel-r1-k3"): (0, "8aa5b9f01759814c"),
    ("apex10", "kernel-r2-k3"): (0, "7ff82667e27f2145"),
    ("grid8", "wcol-r2"): (0, "da8684b88936a6b6"),
    ("grid8", "wcol-r3"): (0, "ea23defe580825bf"),
    ("grid8", "wcol-r4"): (0, "9384e6077f15b022"),
    ("grid8", "domset-r1"): (0, "c9a8d7fd07af537d"),
    ("grid8", "domset-r1-red"): (0, "8d498f145a215b06"),
    ("grid8", "domset-r1-red-blue"): (0, "8d498f145a215b06"),
    ("grid8", "domset-r2"): (0, "4538d583f14ae4f8"),
    ("grid8", "domset-r2-red"): (0, "e713befce73b19f0"),
    ("grid8", "domset-r2-red-blue"): (0, "0e88e6f9f29348df"),
    ("grid8", "kernel-r1-k3"): (1, "09031cf59e617054"),
    ("grid8", "kernel-r2-k3"): (1, "d9039c4251ef5213"),
}


def _digest(tmp_path, graph: str, command: str) -> tuple[int, str]:
    g = GRAPHS[graph]()
    path = tmp_path / "g.dg"
    path.write_text(format_digraph(g))
    red = tmp_path / "red.txt"
    red.write_text("".join(f"{v}\n" for v in range(0, g.n, 3)))
    blue = tmp_path / "blue.txt"
    blue.write_text("".join(f"{v}\n" for v in range(g.n) if v % 3 != 2))
    lists = {"RED": str(red), "BLUE": str(blue)}
    sub, *rest = COMMANDS[command]
    return _run([sub, str(path)] + [lists.get(a, a) for a in rest])


def _run(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = TIMING_LINE.sub("", buf.getvalue())
    return code, hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("graph,command", sorted(EXPECTED))
def test_cli_output_matches_golden(tmp_path, graph, command):
    assert _digest(tmp_path, graph, command) == EXPECTED[graph, command]


def test_golden_table_covers_every_case():
    assert set(EXPECTED) == {(g, c) for g in GRAPHS for c in COMMANDS}


# ---------------------------------------------------------------------------
# dst --fpt and dst --scss


def _terminal_cycle_instance() -> DstInstance:
    # two terminal cycles to contract (s = 2); the optimum is 3
    g = random_digraph(18, 36, 29)
    cycle = {(2, 5), (5, 9), (9, 2), (11, 14), (14, 11)}
    terminals = frozenset({2, 5, 9, 11, 14, 16})
    return DstInstance(Digraph(18, set(g.arcs()) | cycle), 0, terminals, 4)


def _terminal_chain_instance() -> DstInstance:
    # the path 14 -> 2 -> 16 -> 12 runs through terminals: the bypass arcs
    # must follow it to the end, and must not leave the terminals
    g = random_digraph(19, 40, 1992)
    chain = {(14, 2), (2, 16), (16, 12)}
    terminals = frozenset({2, 4, 7, 12, 14, 16})
    return DstInstance(Digraph(19, set(g.arcs()) | chain), 10, terminals, 3)


def _split_tie_instance() -> DstInstance:
    # two splits at one vertex tie here; the DP keeps the first one it
    # enumerates and answers [1, 8], the last one would give [1, 6]
    g = random_digraph(11, 25, 777)
    return DstInstance(Digraph(11, set(g.arcs()) | {(9, 0)}), 7,
                       frozenset({0, 4, 5, 9, 10}), 3)


def _deletion_leaf_instance() -> DstInstance:
    # hub 3 dominates all six terminals and is high-degree (d = 4), but
    # the root reaches it only by 0 -> 4 -> 5 -> 6 -> 3; 1 and 2 cover
    # three terminals each.  At budget 2 absorbing 3 fails, and the
    # deletion branch's leaf, where dead 3 still has arcs, answers [1, 2]
    n, hub = 20, 3
    arcs = {(0, 1), (0, 2), (0, 4), (4, 5), (5, 6), (6, hub)}
    arcs |= {(1, t) for t in (10, 11, 12)} | {(2, t) for t in (13, 14, 15)}
    arcs |= {(hub, t) for t in range(10, 16)}
    others = [v for v in range(n) if not 10 <= v < 16]
    background = random_digraph(len(others), len(others), 1)
    arcs |= {(others[u], others[v]) for u, v in background.arcs()}
    return DstInstance(Digraph(n, arcs), 0, frozenset(range(10, 16)), 3)


def _merged_heads_instance() -> DstInstance:
    # the terminal cycle 3 -> 7 -> 11 contracts to one vertex (s = 2), and
    # non-terminal 1 has arcs into 3 and 7, so its contracted row merges
    # two heads into one
    g = random_digraph(16, 30, 4)
    planted = {(3, 7), (7, 11), (11, 3), (0, 1), (1, 3), (1, 7), (0, 2),
               (2, 4), (4, 5), (4, 13), (5, 8), (13, 8), (8, 3)}
    return DstInstance(Digraph(16, set(g.arcs()) | planted), 0,
                       frozenset({3, 5, 7, 11, 13}), 4)


DST_INSTANCES = {
    # the bypass arcs pick [3, 13] here; without them the DP finds [4, 13]
    "bypass-tie": lambda: DstInstance(
        random_digraph(17, 34, 622), 1, frozenset({0, 7, 10, 15, 16}), 4),
    "terminal-cycle": _terminal_cycle_instance,
    "terminal-chain": _terminal_chain_instance,
    "split-tie": _split_tie_instance,
    "planted-hub24": planted_hub_instance,
    "deletion-leaf": _deletion_leaf_instance,
    "merged-heads": _merged_heads_instance,
    # the leaf DP caps its states at min(n, budget): budget 1 is infeasible,
    # as in the benchmark's infeasible desk job, a budget above n caps them
    # at n, and at budget 0 no relaxation leaves a non-terminal
    "planted-hub24-k1": lambda: replace(planted_hub_instance(), budget=1),
    "planted-hub24-k30": lambda: replace(planted_hub_instance(), budget=30),
    "deletion-leaf-k0": lambda: replace(_deletion_leaf_instance(), budget=0),
}

DST_COMMANDS = {"fpt": ("--fpt",), "scss": ("--scss",)}

# (instance, command) -> (exit code, first 16 hex digits of the stdout digest)
DST_EXPECTED = {
    ("bypass-tie", "fpt"): (0, "7e2e1b109f56e791"),
    ("bypass-tie", "scss"): (1, "95d100ec5a1c665e"),
    ("terminal-cycle", "fpt"): (0, "08abdf3befeb23e4"),
    ("terminal-cycle", "scss"): (0, "04d715c0cd15e534"),
    ("terminal-chain", "fpt"): (0, "7c7ea1c513ca1cdc"),
    ("terminal-chain", "scss"): (1, "c381e4aa5069a40c"),
    ("split-tie", "fpt"): (0, "fc91d918c33ff84f"),
    ("split-tie", "scss"): (0, "88647740bd39dfe2"),
    ("planted-hub24", "fpt"): (0, "bda5b6bbb0e2367d"),
    ("planted-hub24", "scss"): (0, "7d85e9e637f62da7"),
    ("deletion-leaf", "fpt"): (0, "a398720a346639e6"),
    ("deletion-leaf", "scss"): (1, "863d545e2a717da3"),
    ("merged-heads", "fpt"): (0, "f6dbdac6549da78d"),
    ("merged-heads", "scss"): (0, "e22e3ce2d20bafc4"),
    ("planted-hub24-k1", "fpt"): (1, "90a43657146adbbe"),
    ("planted-hub24-k1", "scss"): (1, "6fe7b04fe0ee3f87"),
    ("planted-hub24-k30", "fpt"): (0, "addffafd9ba3b77e"),
    ("planted-hub24-k30", "scss"): (0, "fa4f316ea759e1f5"),
    ("deletion-leaf-k0", "fpt"): (1, "392e86e56d55016c"),
    ("deletion-leaf-k0", "scss"): (1, "b50e522dc9a73ef1"),
}


@pytest.mark.parametrize("instance,command", sorted(DST_EXPECTED))
def test_dst_output_matches_golden(tmp_path, instance, command):
    path = tmp_path / "inst.dst"
    path.write_text(format_dst_instance(DST_INSTANCES[instance]()))
    got = _run(["dst", str(path), *DST_COMMANDS[command]])
    assert got == DST_EXPECTED[instance, command]


def test_dst_golden_table_covers_every_case():
    assert set(DST_EXPECTED) == {(i, c) for i in DST_INSTANCES for c in DST_COMMANDS}


# dst --exact, within the enumeration oracle's default cap of 12 vertices:
# instance -> (exit code, first 16 hex digits of the stdout digest)
DST_EXACT_EXPECTED = {
    "feasible": (0, "75154c95eaa484dc"),    # solution [2, 3], at the budget
    "infeasible": (1, "138e0c3543305c34"),
}


@pytest.mark.parametrize("instance,seed", [("feasible", 5), ("infeasible", 3)])
def test_dst_exact_output_matches_golden(tmp_path, instance, seed):
    path = tmp_path / "inst.dst"
    path.write_text(format_dst_instance(
        DstInstance(random_digraph(12, 20, seed), 0, frozenset({5, 8, 11}), 2)))
    assert _run(["dst", str(path), "--exact"]) == DST_EXACT_EXPECTED[instance]


# ---------------------------------------------------------------------------
# domset --scds


def _strong_host(n: int, m: int, seed: int, bidirected: bool = False) -> Digraph:
    """random_digraph(n, m, seed), optionally bidirected, plus the
    Hamiltonian cycle 0 -> 1 -> ... -> n-1 -> 0: strongly connected."""
    arcs = set(random_digraph(n, m, seed).arcs())
    if bidirected:
        arcs |= {(v, u) for u, v in arcs}
    return Digraph(n, arcs | {(i, (i + 1) % n) for i in range(n)})


SCDS_GRAPHS = {
    "strong30": lambda: _strong_host(30, 45, 5),
    "strong40": lambda: _strong_host(40, 60, 6),
    "bidirected24": lambda: _strong_host(24, 24, 7, bidirected=True),
    "strong200": lambda: _strong_host(200, 400, 3),
}

# (graph, radius) -> (exit code, first 16 hex digits of the stdout digest)
SCDS_EXPECTED = {
    ("strong30", 1): (0, "a33e3b68fe231b6a"),
    ("strong30", 2): (0, "f37337e1161da0d8"),
    ("strong40", 1): (0, "610615323846fc83"),
    ("strong40", 2): (0, "0a1f848cf86ebb9a"),
    ("bidirected24", 1): (0, "e1c38044c45a3e7f"),
    ("bidirected24", 2): (0, "6c8635e324ab749b"),
    ("strong200", 1): (0, "d847b7b51dab98ce"),
    ("strong200", 2): (0, "40d6d3316b73fba8"),
}


@pytest.mark.parametrize("graph,radius", sorted(SCDS_EXPECTED))
def test_scds_output_matches_golden(tmp_path, graph, radius):
    path = tmp_path / "g.dg"
    path.write_text(format_digraph(SCDS_GRAPHS[graph]()))
    got = _run(["domset", str(path), "--scds", "--radius", str(radius)])
    assert got == SCDS_EXPECTED[graph, radius]


def test_scds_golden_table_covers_every_case():
    assert set(SCDS_EXPECTED) == {(g, r) for g in SCDS_GRAPHS for r in (1, 2)}
