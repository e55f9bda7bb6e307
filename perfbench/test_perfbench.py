"""Tests of the benchmark's own code: generators, checkers, statistics
and the tracer.  Run with ``python3 -m pytest perfbench``."""
import io
import json
from contextlib import redirect_stdout

import pytest

import check
import gen
import run
from spans import Tracer
from sparsedigraph import cli
from sparsedigraph.instances import apex_crown


def _cli_report(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("make", [
    lambda seed: gen.random_graph(300, 900, seed, "t").arcs,
    lambda seed: gen.steiner_host(200, 12, seed, "t").graph.arcs,
])
def test_same_seed_same_arcs_other_seed_other_arcs(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_sparse_digraph_has_no_loops_or_duplicates():
    arcs = gen.random_graph(100, 300, 1, "t").arcs
    assert len(arcs) == len(set(arcs)) == 300
    assert all(u != v for u, v in arcs)


def test_planted_host_optimum_matches_exact_enumeration(tmp_path):
    host = gen.steiner_host(24, 11, 3, "t")
    opt = check.planted_optimum(host)
    path = str(tmp_path / "i.dst")
    gen.write_dst(path, host, 4)
    code, rep = _cli_report(["dst", path, "--fpt"])
    assert code == 0 and len(rep["solution"]) == opt
    assert check.check_dst(host, 4, code, rep, opt, exact=True)[0] is None


def test_checker_rejects_dropped_dominator(tmp_path):
    g = gen.package_graph("apex_crown(6)", apex_crown(6))
    path = str(tmp_path / "g.dg")
    gen.write_graph(path, g)
    code, rep = _cli_report(["domset", path, "--radius", "1"])
    everyone = range(g.n)
    assert check.check_domset(g, 1, everyone, everyone, code, rep, optimum=4)[0] is None
    rep["solution"] = rep["solution"][1:]
    assert check.check_domset(g, 1, everyone, everyone, code, rep)[0] is not None


def test_checker_rejects_removed_steiner_vertex(tmp_path):
    host = gen.steiner_host(200, 12, 1, "t")
    opt = check.planted_optimum(host)
    path = str(tmp_path / "i.dst")
    gen.write_dst(path, host, 5)
    code, rep = _cli_report(["dst", path, "--fpt"])
    assert check.check_dst(host, 5, code, rep, opt)[0] is None
    rep["solution"] = rep["solution"][1:]
    assert check.check_dst(host, 5, code, rep, None)[0] is not None


def test_checker_rejects_order_that_raises_wreach(tmp_path):
    g = gen.random_graph(150, 450, 2, "t")
    path = str(tmp_path / "g.dg")
    gen.write_graph(path, g)
    code, rep = _cli_report(["wcol", path, "--radius", "2"])
    assert check.check_wcol(g, 2, code, rep)[0] is None
    worse = rep["order"][::-1]
    assert max(check.wreach_sizes(g, worse, 2)) > rep["achieved"]
    rep["order"] = worse
    assert check.check_wcol(g, 2, code, rep)[0] is not None


def test_failed_jobs_rank_last():
    outcomes = [run.Outcome("ok", t / 1000, failed=False, latency=t / 1000)
                for t in range(1, 31)]
    outcomes += [run.Outcome("failed", 0.0001, failed=True, latency=0.0001) for _ in range(10)]
    ranked = run.ranked_latencies(outcomes)
    assert ranked[-10:] == [0.0001] * 10
    pct = run.tail_percentile(len(ranked))
    assert pct == 75
    # the ten failures are exactly the samples beyond the tail percentile
    assert run.nearest_rank(ranked, pct) == 0.030


@pytest.mark.parametrize("n", [11, 20, 37, 48, 100, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    pct = run.tail_percentile(n)
    rank = -(-pct * n // 100)
    assert n - rank >= 10
    assert n - (-(-(pct + 1) * n // 100)) < 10


def test_tracer_self_time_and_uninstall(tmp_path):
    from sparsedigraph import digraph, duality

    before = digraph.out_ball, duality.out_ball, digraph.Digraph.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert duality.out_ball is digraph.out_ball is not before[0]
        path = str(tmp_path / "g.dg")
        gen.write_graph(path, gen.random_graph(30, 60, 1, "t"))
        tracer.start_job("0.0")
        with redirect_stdout(io.StringIO()):
            cli.main(["kernel", path, "--radius", "1", "--budget", "30"])
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert (digraph.out_ball, duality.out_ball, digraph.Digraph.__init__) == before
    stats = tracer.layer_stats()
    calls, total, own = stats["cli.main"]
    assert calls == 1 and 0 < own < total
    assert stats["coloring.compute_wcol_order"][0] >= 2
    assert tracer.counters["coloring.compute_wcol_order.repeats"] >= 1
    assert sum(row[2] for row in stats.values()) == pytest.approx(total)
