"""Command line surface: subcommands, formats, exit codes, determinism."""
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sparsedigraph import cli, digraph, duality, instances, minors

from sparsedigraph.cli import main
from sparsedigraph import format_digraph, parse_digraph, random_digraph
from sparsedigraph.instances import apex_crown, crown, directed_path
from sparsedigraph.steiner import format_dst_instance
from sparsedigraph.steiner_types import DstInstance
from sparsedigraph import Digraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.dg"):
    path = tmp_path / name
    path.write_text(format_digraph(g))
    return str(path)


def json_out(out):
    return json.loads(out)


def test_gen_path(capsys):
    code, out, _ = run(capsys, "gen", "path", "7")
    assert code == 0
    g = parse_digraph(out)
    assert (g.n, g.m) == (7, 6)


def test_gen_random_requires_seed(capsys):
    code, _, err = run(capsys, "gen", "random", "5")
    assert code == 2
    assert "seed" in err
    assert run(capsys, "gen", "random", "5", "--seed", "1")[0] == 2
    assert run(capsys, "gen", "random", "5", "--arcs", "4")[0] == 2


def test_gen_random_rejects_a_negative_arc_count(capsys):
    assert run(capsys, "gen", "random", "5", "--arcs", "-1", "--seed", "1") == (
        2, "", "error: arc count m=-1 is negative\n")


@pytest.mark.parametrize("extra, option", [
    (("--arcs", "99", "--seed", "1"), "--arcs"),
    (("--seed", "1"), "--seed"),
    (("--arcs", "2"), "--arcs"),
])
def test_gen_rejects_options_its_family_ignores(capsys, extra, option):
    assert run(capsys, "gen", "path", "3", *extra) == (
        2, "", f"error: {option} applies only to the random family\n")


@pytest.mark.parametrize("family,text", [
    ("apex-crown", "# recipe apex-crown 3\ndigraph 7 9\n"
                   "3 0\n3 1\n4 0\n4 2\n5 1\n5 2\n6 3\n6 4\n6 5\n"),
    ("bidirected-clique", "# recipe bidirected-clique 3\ndigraph 3 6\n"
                          "0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n"),
])
def test_gen_named_family(capsys, family, text):
    assert run(capsys, "gen", family, "3") == (0, text, "")


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "out.dg"
    code, out, _ = run(capsys, "gen", "crown", "3", "-o", str(target))
    assert code == 0
    assert parse_digraph(target.read_text()).n == 6


@pytest.mark.parametrize("family, size, n", [("path", "1000001", 1000001),
                                             ("crown", "1415", 1001820)])
def test_gen_past_the_parse_cap_is_refused_before_building(capsys, monkeypatch,
                                                           family, size, n):
    # no reader accepts more than MAX_PARSE_N vertices, so gen builds none
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(instances, "Digraph", refuse)
    assert run(capsys, "gen", family, size) == (
        3, "", f"size cap: recipe {family} {size}: {n} vertices exceed cap 1000000\n")


def test_wcol_tfa(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(12, 30, 3))
    code, out, _ = run(capsys, "wcol", path, "--radius", "2")
    assert code == 0
    rep = json_out(out)
    assert rep["schema"] == 1
    assert rep["achieved"] <= rep["guarantee"]
    assert rep["valid"] is True
    assert sorted(rep["order"]) == list(range(12))


def test_wcol_and_kernel_at_huge_radius_on_a_path(tmp_path, capsys):
    # the augmentation keeps no layer past its closure, so wcol's memory is
    # flat in r; kernel still adds length-r paths, up to its vertex cap
    path = write_graph(tmp_path, directed_path(3))
    code, out, _ = run(capsys, "wcol", path, "--radius", "100000")
    assert code == 0
    assert json_out(out)["valid"] is True
    code, out, _ = run(capsys, "kernel", path, "--radius", "3000", "--budget", "1")
    assert code == 0
    json_out(out)


def test_wcol_at_radius_ten_million_takes_no_memory(tmp_path, capsys):
    # nothing is kept per layer past the closure, so the peak does not
    # grow with r
    path = write_graph(tmp_path, directed_path(3))
    assert run(capsys, "wcol", path, "--radius", "3")[0] == 0  # load the modules first
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "wcol", path, "--radius", "10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json_out(out)["valid"] is True
    assert peak < 2**20


def test_coloring_past_the_cap_is_refused_before_its_radius_is_built(tmp_path, capsys):
    # 2^(10^8) would take 12 MiB, and its comparison with the cap longer
    path = write_graph(tmp_path, directed_path(2))
    assert run(capsys, "wcol", path, "--radius", "2", "--coloring", "6")[0] == 3  # load first
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "wcol", path, "--radius", "2", "--coloring", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "radius 2^100000000 exceeds cap 32" in err
    assert peak < 2**20


@pytest.mark.parametrize("graph", [directed_path(3), Digraph(0)], ids=["path", "empty"])
def test_wcol_radius_zero_is_answered(tmp_path, capsys, graph):
    # every vertex weakly 0-reaches only itself; this once exited 2
    path = write_graph(tmp_path, graph)
    code, out, err = run(capsys, "wcol", path, "--radius", "0")
    assert (code, err) == (0, "")
    rep = json_out(out)
    assert rep["wreach_sizes"] == [1] * graph.n
    assert rep["guarantee"] == 1 and rep["valid"] is True
    assert sorted(rep["order"]) == list(range(graph.n))


def test_wcol_exact_flag(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(5))
    code, out, _ = run(capsys, "wcol", path, "--radius", "5", "--exact")
    assert code == 0
    assert json_out(out)["exact"] == 3  # ceil(log2(6))


def test_wcol_cap_exit(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(12, 20, 0))
    code, _, err = run(capsys, "wcol", path, "--radius", "2", "--exact")
    assert code == 3
    assert "cap" in err


def test_minor_found_and_not(tmp_path, capsys):
    path = write_graph(tmp_path, apex_crown(4))
    code, out, _ = run(capsys, "minor", path, "--crown", "4", "--depth", "0")
    assert code == 0
    rep = json_out(out)
    assert rep["found"] is True
    assert len(rep["witness"]) == apex_crown(4).n - 1  # crown(4) has 10 vertices

    path2 = write_graph(tmp_path, directed_path(8), "p.dg")
    code, out, _ = run(capsys, "minor", path2, "--crown", "3", "--depth", "2")
    assert code == 1
    assert json_out(out)["found"] is False


@pytest.mark.parametrize("command, depth, depth_error", [
    (["minor"], "--depth", "depth must be nonnegative"),
    (["oracle", "crown"], "--radius", "radius must be nonnegative"),
], ids=["minor", "oracle"])
def test_crown_larger_than_the_host_is_not_built(tmp_path, capsys, monkeypatch,
                                                  command, depth, depth_error):
    path = write_graph(tmp_path, directed_path(4))

    def call(q, *options):
        return run(capsys, command[0], path, *command[1:], "--crown", str(q), *options)

    # the checks that come first keep their order: crown order, host cap,
    # depth (``oracle`` checks its radius before all three)
    assert call(1, depth, "0", "--max-n", "3") == (2, "", "error: crown order must be at least 2\n")

    def refuse(q):
        raise AssertionError("a crown was built")

    monkeypatch.setattr(minors, "crown", refuse)
    monkeypatch.setattr(instances, "crown", refuse)
    capped = (3, "", "size cap: is_depth_r_minor: size 4 exceeds cap 3; "
                     "pass max_n to override (slow)\n")
    assert call(100000, depth, "0", "--max-n", "3") == capped
    if command == ["minor"]:
        assert call(100000, depth, "-1", "--max-n", "3") == capped
    assert call(100000, depth, "-1") == (2, "", f"error: {depth_error}\n")
    code, out, err = call(100000, depth, "0")
    assert (code, json_out(out)["found"], json_out(out)["crown"], err) == (1, False, 100000, "")


def test_dst_fpt_and_exact(tmp_path, capsys):
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    inst = DstInstance(g, 0, frozenset({3}), 2)
    path = tmp_path / "inst.dst"
    path.write_text(format_dst_instance(inst))
    code, out, _ = run(capsys, "dst", str(path), "--fpt")
    assert code == 0
    rep = json_out(out)
    assert rep["feasible"] and rep["solution"] == [1, 2]
    code, out, _ = run(capsys, "dst", str(path), "--exact")
    assert json_out(out)["solution"] == [1, 2]

    hopeless = DstInstance(Digraph(3, [(0, 1)]), 0, frozenset({2}), 2)
    path2 = tmp_path / "bad.dst"
    path2.write_text(format_dst_instance(hopeless))
    code, out, _ = run(capsys, "dst", str(path2), "--fpt")
    assert code == 1
    assert json_out(out)["feasible"] is False


def test_dst_fpt_unreachable_root_past_inf_budget(tmp_path, capsys):
    # the root's side {1, 2} never reaches terminal 0; a budget above the
    # subset DP's INF sentinel used to end in a KeyError (exit 4)
    path = tmp_path / "inf.dst"
    path.write_text("digraph 3 2\n1 2\n2 1\nroot 2\nterminal 0\nbudget 4\n")
    code, out, err = run(capsys, "dst", str(path), "--fpt")
    assert code == 1, err
    rep = json_out(out)
    assert rep["feasible"] is False
    assert len(rep["nodes_expanded"]) == 5


@pytest.mark.parametrize("mode, searches, code, extra", [
    ("--scss", 0, 1, {"feasible": False}),
    ("--fpt", 299, 0, {"feasible": True, "solution": [], "d": 2, "s": 298, "nodes_expanded": [1]}),
])
def test_dst_searches_terminal_diameters_only_for_the_report(
        tmp_path, capsys, monkeypatch, mode, searches, code, extra):
    # root 0 -> 1 -> ... -> 299 -> 1: the terminals form one strongly
    # connected set of 299 vertices.  Only --fpt reports its diameter s,
    # one search per member; the leaf and --scss contract it and search none
    n = 300
    arcs = [(0, 1), (n - 1, 1)] + [(v, v + 1) for v in range(1, n - 1)]
    path = tmp_path / "cycle.dst"
    path.write_text(format_dst_instance(DstInstance(Digraph(n, arcs), 0, frozenset(range(1, n)), 2)))
    real = digraph.out_distances
    calls = []
    monkeypatch.setattr(digraph, "out_distances", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    got, out, err = run(capsys, "dst", str(path), mode)
    rep = json_out(out)
    del rep["timing_ms"]
    assert (got, err) == (code, "")
    assert rep == {"command": "dst", "schema": 1, "n": n, "root": 0,
                   "terminals": list(range(1, n)), "budget": 2, **extra}
    assert sorted(calls) == list(range(searches))


def test_domset_redblue_files(tmp_path, capsys):
    g = random_digraph(12, 36, 5)
    path = write_graph(tmp_path, g)
    red = tmp_path / "red.txt"
    blue = tmp_path / "blue.txt"
    red.write_text("\n".join(str(v) for v in range(0, 12, 2)))
    blue.write_text("\n".join(str(v) for v in range(12)))
    code, out, _ = run(
        capsys, "domset", path, "--radius", "2",
        "--red", str(red), "--blue", str(blue),
    )
    assert code == 0
    assert json_out(out)["valid"] is True


def test_domset_empty_red_reports_engine(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(3))
    red = tmp_path / "red.txt"
    red.write_text("")
    code, out, _ = run(capsys, "domset", path, "--radius", "1", "--red", str(red))
    assert code == 0
    report = json_out(out)
    assert report["solution"] == []
    assert "engine" not in report and "k_guess" not in report


def test_domset_scds_star(tmp_path, capsys):
    arcs = [(0, i) for i in range(1, 5)] + [(i, 0) for i in range(1, 5)]
    path = write_graph(tmp_path, Digraph(5, arcs))
    code, out, _ = run(capsys, "domset", path, "--radius", "1", "--scds")
    assert code == 0
    assert json_out(out)["solution"] == [0]


def test_domset_scds_empty_graph_reports_ball(tmp_path, capsys):
    path = write_graph(tmp_path, Digraph(0))
    code, out, _ = run(capsys, "domset", path, "--radius", "1", "--scds")
    assert code == 0
    report = json_out(out)
    assert report["solution"] == []
    assert report["k_guess"] is None and report["center"] is None


def test_domset_radius_zero_is_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(3))
    code, out, err = run(capsys, "domset", path, "--radius", "0")
    assert code == 2
    assert out == ""
    assert err == "error: radius must be at least 1\n"


@pytest.mark.parametrize("graph, radius", [(Digraph(0), "-2"), (directed_path(3), "0")])
def test_domset_scds_checks_the_radius_first(tmp_path, capsys, graph, radius):
    # the empty graph would be answered, and the path is not strongly connected
    path = write_graph(tmp_path, graph)
    code, out, err = run(capsys, "domset", path, "--scds", "--radius", radius)
    assert (code, out, err) == (2, "", "error: radius must be at least 1\n")


def test_domset_seed_flag_is_gone(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(3))
    assert run(capsys, "domset", path, "--radius", "1", "--seed", "3")[0] == 2


def test_domset_scds_infeasible(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(4))
    code, _, err = run(capsys, "domset", path, "--radius", "1", "--scds")
    assert code == 1
    assert "infeasible" in err


def test_domset_oracle_ratio_past_the_subset_cap_exits_size_cap(tmp_path, capsys,
                                                                monkeypatch):
    from sparsedigraph import oracles

    path = write_graph(tmp_path, directed_path(6))
    code, out, _ = run(capsys, "domset", path, "--radius", "1", "--oracle-ratio")
    assert code == 0 and json_out(out)["ratio_vs_oracle"] == 1.0
    # 6 blues: 1 + 6 + 15 + 20 + 15 = 57 subsets of up to 4 vertices
    monkeypatch.setattr(oracles, "MAX_REDBLUE_SUBSETS", 56)
    code, out, err = run(capsys, "domset", path, "--radius", "1", "--oracle-ratio")
    assert (code, out) == (3, "")
    assert err == ("size cap: redblue_exact_enum: 57 blue subsets of up to 4 vertices"
                   " exceed cap 56\n")


def test_kernel_roundtrip(tmp_path, capsys):
    g = random_digraph(9, 20, 2)
    path = write_graph(tmp_path, g)
    target = tmp_path / "kernel.dg"
    code, out, _ = run(
        capsys, "kernel", path, "--radius", "1", "--budget", "2",
        "--emit-kernel", str(target),
    )
    rep = json_out(out)
    assert code in (0, 1)
    kernel = parse_digraph(target.read_text())
    assert kernel.n == rep["kernel_n"]


def test_kernel_past_the_parse_cap_exits_size_cap(tmp_path, capsys):
    # on a 3-vertex path the kernel keeps all 3 vertices and adds 2 + (r - 1)
    path = write_graph(tmp_path, directed_path(3))
    code, out, err = run(capsys, "kernel", path, "--radius", "999997", "--budget", "1")
    assert (code, out) == (3, "")
    assert "1000001 vertices exceed cap 1000000" in err


@pytest.mark.parametrize("r, code", [(96, 0), (97, 3)])
def test_kernel_at_the_lowered_parse_cap(tmp_path, capsys, monkeypatch, r, code):
    monkeypatch.setattr(duality, "MAX_PARSE_N", 100)
    path = write_graph(tmp_path, directed_path(3))
    got, out, err = run(capsys, "kernel", path, "--radius", str(r), "--budget", "1")
    assert got == code
    if code:
        assert out == "" and "101 vertices exceed cap 100" in err
    else:
        assert json_out(out)["kernel_n"] == 100


def test_kernel_long_path_reports(tmp_path, capsys):
    # the independence tree on this path is 1501 nodes deep
    path = write_graph(tmp_path, directed_path(3000))
    code, out, err = run(capsys, "kernel", path, "--radius", "1", "--budget", "2000")
    assert (code, err) == (0, "")
    rep = json_out(out)
    assert rep["infeasible"] is False
    assert (rep["core_size"], rep["kernel_n"]) == (3000, 3002)


def test_kernel_path_6000_reports(tmp_path, capsys):
    # the tree's left spine is 3001 nodes deep; inserting by spine jumps
    # keeps this about linear in n
    path = write_graph(tmp_path, directed_path(6000))
    code, out, err = run(capsys, "kernel", path, "--radius", "1", "--budget", "4000")
    assert (code, err) == (0, "")
    rep = json_out(out)
    assert rep["infeasible"] is False
    assert rep["core_size"] == 6000


def test_kernel_threshold_too_long_to_print(tmp_path, capsys, monkeypatch):
    huge = 10 ** (sys.get_int_max_str_digits() + 5) * 3
    real = duality.kernelize
    monkeypatch.setattr(
        duality, "kernelize",
        lambda g, r, k: dataclasses.replace(real(g, r, k), threshold=huge),
    )
    path = write_graph(tmp_path, random_digraph(9, 20, 2))
    code, out, err = run(capsys, "kernel", path, "--radius", "1", "--budget", "2")
    assert code in (0, 1) and err == ""
    rep = json_out(out)
    assert rep["threshold"] is None
    assert rep["threshold_log10"] == round(sys.get_int_max_str_digits() + 5.477, 3)
    code, out, _ = run(
        capsys, "--format", "tsv", "kernel", path, "--radius", "1", "--budget", "2",
    )
    rows = dict(ln.split("\t", 1) for ln in out.strip().splitlines())
    assert code in (0, 1) and rows["threshold"] == "None"


def test_kernel_threshold_printable_stays_int(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(9, 20, 2))
    code, out, _ = run(capsys, "kernel", path, "--radius", "1", "--budget", "2")
    rep = json_out(out)
    assert isinstance(rep["threshold"], int)
    assert "threshold_log10" not in rep


def test_unexpected_error_exits_internal(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_wcol", boom)
    path = write_graph(tmp_path, directed_path(4))
    code, out, err = run(capsys, "wcol", path, "--radius", "2")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_error_while_emitting_exits_internal(tmp_path, capsys, monkeypatch):
    def unprintable(report, fmt):
        raise ValueError("cannot print")

    monkeypatch.setattr(cli, "_emit", unprintable)
    path = write_graph(tmp_path, directed_path(4))
    code, _, err = run(capsys, "wcol", path, "--radius", "2")
    assert code == 4
    assert err == "internal error: ValueError: cannot print\n"


@pytest.mark.parametrize("argv", [
    ["wcol", "{graph}", "--exact", "--radius", "-3"],
    ["oracle", "{graph}", "gamma", "--radius", "-1"],
    ["oracle", "{graph}", "alpha", "--radius", "-1"],
    ["oracle", "{graph}", "vc", "--radius", "-1"],
    ["oracle", "{graph}", "verify-dominating", "--radius", "-1", "--set", "{list}"],
    ["oracle", "{graph}", "verify-scattered", "--radius", "-1", "--set", "{list}"],
    ["oracle", "{graph}", "verify-strong", "--radius", "-1", "--set", "{list}"],
], ids=["wcol-exact", "gamma", "alpha", "vc", "verify-dominating", "verify-scattered",
        "verify-strong"])
@pytest.mark.parametrize("graph", [Digraph(0), directed_path(3)], ids=["empty", "path"])
def test_negative_radius_is_a_usage_error_on_any_graph(tmp_path, capsys, argv, graph):
    # on the empty graph, or with an empty --set, these once exited 0
    files = {"graph": write_graph(tmp_path, graph), "list": str(tmp_path / "s.txt")}
    Path(files["list"]).write_text("")
    assert run(capsys, *(a.format(**files) for a in argv)) == (
        2, "", "error: radius must be nonnegative\n")


def test_minor_model_its_checker_rejects_exits_internal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(minors, "validate_model", lambda h, g, r, model: False)
    path = write_graph(tmp_path, crown(3))
    assert run(capsys, "minor", path, "--crown", "3", "--depth", "0") == (
        4, "", "internal invariant failure: search produced a model its own checker rejects\n")


def test_oracle_gamma(tmp_path, capsys):
    path = write_graph(tmp_path, apex_crown(4))
    code, out, _ = run(capsys, "oracle", path, "gamma", "--radius", "1")
    assert code == 0
    assert json_out(out)["gamma"] == 3


def test_oracle_alpha_on_two_thousand_vertices_does_not_recurse(tmp_path, capsys):
    path = str(tmp_path / "g.dg")
    assert run(capsys, "gen", "random", "2000", "--arcs", "0", "--seed", "1",
               "--output", path)[0] == 0
    code, out, err = run(capsys, "oracle", path, "alpha", "--radius", "1", "--max-n", "5000")
    assert (code, err) == (0, "")
    assert json_out(out)["alpha"] == 2000


@pytest.mark.parametrize("argv", [
    ["oracle", "{graph}", "verify-dominating", "--set", "{list}"],
    ["oracle", "{graph}", "verify-scattered", "--set", "{list}"],
    ["oracle", "{graph}", "verify-strong", "--set", "{list}"],
    ["domset", "{graph}", "--radius", "1", "--red", "{list}"],
    ["domset", "{graph}", "--radius", "1", "--blue", "{list}"],
], ids=["verify-dominating", "verify-scattered", "verify-strong", "red", "blue"])
@pytest.mark.parametrize("listed, bad", [("0\n1\n7\n", 7), ("9\n-1\n0\n", -1),
                                         ("# chosen\n\n 2 \n5\n", 5)],
                         ids=["past-n", "negative", "comment-and-blank"])
def test_vertex_lists_are_range_checked(tmp_path, capsys, argv, listed, bad):
    # on a 3-cycle, {0, 1, 7} once passed verify-dominating as a valid set
    files = {"graph": write_graph(tmp_path, Digraph(3, [(0, 1), (1, 2), (2, 0)])),
             "list": str(tmp_path / "s.txt")}
    Path(files["list"]).write_text(listed)
    assert run(capsys, *(a.format(**files) for a in argv)) == (
        2, "", f"error: vertex {bad} out of range\n")


@pytest.mark.parametrize("terminals, bad", [((3, 99), 99), ((12, -1, 3), -1), ((99, 10), 10)],
                         ids=["past-n", "negative", "smallest"])
def test_dst_names_an_out_of_range_terminal(tmp_path, capsys, terminals, bad):
    # the smallest terminal outside the 10-vertex graph is named
    path = tmp_path / "inst.dst"
    lines = ["digraph 10 1", "0 1", "root 0", *(f"terminal {t}" for t in terminals), "budget 2"]
    path.write_text("\n".join(lines) + "\n")
    assert run(capsys, "dst", str(path), "--fpt") == (
        2, "", f"error: vertex {bad} out of range\n")


def test_output_deterministic_modulo_timing(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(10, 25, 7))
    _, out1, _ = run(capsys, "domset", path, "--radius", "2")
    _, out2, _ = run(capsys, "domset", path, "--radius", "2")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b


def test_tsv_format(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(4))
    code, out, _ = run(capsys, "--format", "tsv", "wcol", path, "--radius", "2")
    assert code == 0
    rows = dict(ln.split("\t", 1) for ln in out.strip().splitlines())
    assert rows["schema"] == "1"
    assert "guarantee" in rows


def test_usage_error_exit():
    assert main(["wcol"]) == 2
    assert main(["nonsense"]) == 2


def test_jobs_flag_is_gone():
    assert main(["--jobs", "2", "selftest"]) == 2


def test_oversized_header_exits_size_cap(tmp_path, capsys):
    from sparsedigraph.digraph import MAX_PARSE_N

    path = tmp_path / "big.dg"
    path.write_text(f"digraph {MAX_PARSE_N + 1} 0\n")
    code, out, err = run(capsys, "wcol", str(path), "--radius", "1")
    assert code == 3
    assert out == ""
    assert f"n={MAX_PARSE_N + 1} exceeds cap" in err


def test_subset_dp_table_past_cap_exits_size_cap(tmp_path, capsys, monkeypatch):
    from sparsedigraph import steiner

    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "inst.dst"
    path.write_text(format_dst_instance(DstInstance(g, 0, frozenset({3}), 2)))
    monkeypatch.setattr(steiner, "MAX_SUBSET_DP_CELLS", 7)  # one source: 2 * 4 cells
    code, out, err = run(capsys, "dst", str(path), "--fpt")
    assert code == 3
    assert out == ""
    assert "exceed cap 7" in err


def test_exact_grad0_flag_is_gone(tmp_path, capsys):
    path = tmp_path / "inst.dst"
    path.write_text("digraph 2 1\n0 1\nroot 0\nterminal 1\nbudget 1\n")
    assert run(capsys, "dst", str(path), "--fpt")[0] == 0
    assert run(capsys, "dst", str(path), "--fpt", "--exact-grad0")[0] == 2


# ---------------------------------------------------------------------------
# one parser per process

TIMING_LINE = re.compile(r'^(  "timing_ms": |timing_ms\t).*\n', re.M)


def without_timing(out):
    return TIMING_LINE.sub("", out)


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = write_graph(tmp_path, directed_path(4))
    cli.build_parser.cache_clear()
    for _ in range(4):
        assert run(capsys, "wcol", path, "--radius", "2")[0] == 0
    assert run(capsys, "--bogus")[0] == 2
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert cli.build_parser() is cli.build_parser()


def test_usage_errors_leave_the_parser_as_a_cold_one(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(12, 30, 3))
    calls = [("wcol", path, "--radius", "2", "--coloring", "2"),
             ("--format", "tsv", "wcol", path, "--radius", "2")]
    cold = []
    for argv in calls:
        cli.build_parser.cache_clear()
        cold.append(run(capsys, *argv))
    cold_usage = []
    for argv in (["wcol"], ["--bogus"]):
        cli.build_parser.cache_clear()
        cold_usage.append(run(capsys, *argv))
    assert [code for code, _, _ in cold_usage] == [2, 2]
    for argv, (code, out, err) in zip(calls, cold):
        assert [run(capsys, "wcol"), run(capsys, "--bogus")] == cold_usage
        warm_code, warm_out, warm_err = run(capsys, *argv)
        assert (warm_code, without_timing(warm_out), warm_err) == (code, without_timing(out), err)
        assert code == 0 and without_timing(out) != out  # a timing line was dropped


def test_handler_patched_after_first_call_runs(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    path = write_graph(tmp_path, directed_path(4))
    assert run(capsys, "wcol", path, "--radius", "2")[0] == 0
    monkeypatch.setattr(cli, "_cmd_wcol", boom)
    assert run(capsys, "wcol", path, "--radius", "2") == (
        4, "", "internal error: RuntimeError: boom\n")


def test_help_is_wrapped_to_the_current_width(capsys, monkeypatch):
    assert main(["selftest", "--help"]) == 0  # the parser is cached from here on
    capsys.readouterr()
    texts = {}
    for columns in ("40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["wcol", "--help"]) == 0
        texts[columns] = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["wcol", "--help"])
        assert capsys.readouterr().out == texts[columns]
    assert texts["40"] != texts["80"]


def test_malformed_keyword_line_names_the_line(tmp_path, capsys):
    for line in ("terminal 2 3", "root", "budget 1 2"):
        path = tmp_path / "inst.dst"
        path.write_text(f"digraph 4 3\n0 1\n1 2\n2 3\nroot 0\nterminal 3\nbudget 2\n{line}\n")
        assert run(capsys, "dst", str(path), "--fpt") == (
            2, "", f"error: bad instance line: {line!r}\n")


@pytest.mark.parametrize("repeat", ["root 1", "budget 0"])
def test_repeated_root_or_budget_line_is_a_usage_error(tmp_path, capsys, repeat):
    # the second line no longer overrides the first
    path = tmp_path / "inst.dst"
    path.write_text(f"digraph 3 2\n0 1\n1 2\nroot 0\nterminal 2\nbudget 1\n{repeat}\n")
    assert run(capsys, "dst", str(path), "--fpt") == (
        2, "", f"error: repeated instance line: {repeat!r}\n")


# ---------------------------------------------------------------------------
# the module run as a program

SRC = Path(__file__).resolve().parent.parent / "src"

TOP_HELP = """\
usage: sparsedigraph [-h] [--format {json,tsv}]
                     {gen,wcol,minor,dst,domset,kernel,oracle,selftest} ...

Sparse digraph algorithm toolkit

positional arguments:
  {gen,wcol,minor,dst,domset,kernel,oracle,selftest}
    gen                 generate an instance
    wcol                weak coloring orders
    minor               crown minor search
    dst                 directed Steiner tree
    domset              distance-r dominating sets
    kernel              domination kernelization
    oracle              exact brute-force references
    selftest            run the acceptance suite

options:
  -h, --help            show this help message and exit
  --format {json,tsv}
"""

WCOL_HELP = """\
usage: sparsedigraph wcol [-h] --radius RADIUS [--exact] [--tfa]
                          [--coloring P] [--max-n MAX_N]
                          graph

positional arguments:
  graph

options:
  -h, --help       show this help message and exit
  --radius RADIUS
  --exact
  --tfa
  --coloring P
  --max-n MAX_N
"""


GEN_HELP = """\
usage: sparsedigraph gen [-h] [--arcs ARCS] [--seed SEED] [-o OUTPUT]
                         {path,crown,apex-crown,bidirected-clique,random} size

positional arguments:
  {path,crown,apex-crown,bidirected-clique,random}
  size

options:
  -h, --help            show this help message and exit
  --arcs ARCS
  --seed SEED
  -o OUTPUT, --output OUTPUT
"""

GEN_UNKNOWN_FAMILY = """\
usage: sparsedigraph gen [-h] [--arcs ARCS] [--seed SEED] [-o OUTPUT]
                         {path,crown,apex-crown,bidirected-clique,random} size
sparsedigraph gen: error: argument family: invalid choice: 'tree' (choose from \
'path', 'crown', 'apex-crown', 'bidirected-clique', 'random')
"""

DST_HELP = """\
usage: sparsedigraph dst [-h] [--fpt | --exact | --scss] [--max-n MAX_N]
                         instance

positional arguments:
  instance

options:
  -h, --help     show this help message and exit
  --fpt
  --exact
  --scss         strongly connected variant; root plus terminals form the
                 terminal set
  --max-n MAX_N
"""


def run_module(*argv):
    env = {k: v for k, v in os.environ.items() if k != "FORCE_COLOR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"
    done = subprocess.run([sys.executable, "-m", "sparsedigraph.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_module_entry_point_matches_in_process_call(tmp_path, capsys):
    path = write_graph(tmp_path, random_digraph(12, 30, 3))
    code, out, err = run_module("wcol", path, "--radius", "2")
    assert (code, err) == (0, "")
    in_code, in_out, _ = run(capsys, "wcol", path, "--radius", "2")
    assert in_code == 0
    assert without_timing(out) == without_timing(in_out)
    assert run_module("--help") == (0, TOP_HELP, "")
    assert run_module("wcol", "--help") == (0, WCOL_HELP, "")
    assert run_module("gen", "--help") == (0, GEN_HELP, "")
    assert run_module("dst", "--help") == (0, DST_HELP, "")


def test_gen_unknown_family_is_a_usage_error():
    assert run_module("gen", "tree", "3") == (2, "", GEN_UNKNOWN_FAMILY)


def cyclic_garbage(call) -> int:
    """Objects that only the cyclic collector frees after ``call()``, which
    runs with automatic collection off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


GARBAGE_CASES = {
    "wcol": ["wcol", "{graph}", "--radius", "2"],
    "wcol-exact": ["wcol", "{graph}", "--radius", "2", "--exact"],
    "wcol-coloring": ["wcol", "{graph}", "--radius", "2", "--coloring", "2"],
    "minor": ["minor", "{graph}", "--crown", "3", "--depth", "1"],
    "dst-fpt": ["dst", "{dst}", "--fpt"],
    "dst-scss": ["dst", "{dst}", "--scss"],
    "dst-exact": ["dst", "{dst}", "--exact"],
    "domset": ["domset", "{graph}", "--radius", "1"],
    "domset-red": ["domset", "{graph}", "--radius", "2", "--red", "{set}"],
    "domset-scds": ["domset", "{graph}", "--radius", "1", "--scds"],
    "kernel-core": ["kernel", "{graph}", "--radius", "1", "--budget", "3", "--emit-core"],
    "gen": ["gen", "random", "12", "--arcs", "30", "--seed", "4"],
    **{
        f"oracle-{kind}": ["oracle", "{graph}", kind, "--set", "{set}"]
        for kind in ("gamma", "alpha", "vc", "crown",
                     "verify-dominating", "verify-scattered", "verify-strong")
    },
}


@pytest.mark.parametrize("case", sorted(GARBAGE_CASES))
def test_command_leaves_no_cyclic_garbage(tmp_path, capsys, case):
    # TSV: the stdlib's indented JSON encoder builds its own closure cycles
    base = random_digraph(9, 14, 2)
    host = Digraph(9, set(base.arcs()) | {(v, u) for u, v in base.arcs()})
    files = {
        "graph": write_graph(tmp_path, host),
        "dst": str(tmp_path / "inst.dst"),
        "set": str(tmp_path / "set.txt"),
    }
    Path(files["dst"]).write_text(format_dst_instance(
        DstInstance(random_digraph(12, 30, 2), 0, frozenset({4, 7, 9}), 3)))
    Path(files["set"]).write_text("0\n3\n5\n")
    argv = ["--format", "tsv"] + [a.format(**files) for a in GARBAGE_CASES[case]]
    cli.build_parser()  # built once per process; argparse's help formatters are cyclic
    codes = []
    assert cyclic_garbage(lambda: codes.append(main(argv))) == 0
    assert codes[0] in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector(tmp_path, monkeypatch, enabled):
    from sparsedigraph.digraph import MAX_PARSE_N

    path = write_graph(tmp_path, directed_path(4))
    big = tmp_path / "big.dg"
    big.write_text(f"digraph {MAX_PARSE_N + 1} 0\n")

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_oracle", boom)
    calls = [
        (0, ["wcol", path, "--radius", "2"]),
        (1, ["minor", path, "--crown", "3", "--depth", "1"]),
        (2, ["wcol", path]),  # argparse exits through SystemExit
        (2, ["domset", path, "--radius", "0"]),  # ValueError
        (3, ["wcol", str(big), "--radius", "1"]),
        (4, ["oracle", path, "gamma"]),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, argv in calls:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
