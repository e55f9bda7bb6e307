"""The three workloads, as rounds of command-line jobs.

A run repeats rounds of the same job list.  Every seeded random instance
is generated afresh for each round (from the workload seed and the round
number), so no round repeats a random graph; the named families
(directed paths, apex crowns) are fixed and repeat.

Why these workloads:

- ``wcol-ladder``: ``wcol --radius r`` for r in {2, 3} on sparse random
  digraphs (m = 3n) on a doubling ladder of n, plus one directed path and
  one apex crown per rung.  Degeneracy peels, augmentation, order
  extraction and ``wreach_all`` do the work; each graph's order is
  computed once per job, so a memo of ``compute_wcol_order`` has nothing
  to reuse here.
- ``domination``: ``domset`` and ``kernel`` jobs at r in {1, 2} on random
  graphs, apex crowns (known optimum ceil(q/2)+1 at r=1) and desk-scale
  graphs that the exact oracles can check.  Kernel budgets sit on both
  sides of a greedy dominator's size.  Two kinds of job fail today and
  stay in as counted failures: ``kernel`` on ``directed_path(3000)``
  (RecursionError) and ``kernel --radius 2`` on the random graphs (its
  JSON report holds an integer past Python's 4300-digit str limit).
- ``steiner``: many short ``dst --fpt`` and ``dst --scss`` jobs on
  planted-hub hosts; coloring and domination stay idle, so constant-factor
  costs of the digraph layer show here.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Optional

from sparsedigraph.instances import apex_crown, directed_path
from sparsedigraph.oracles import gamma_r_exact
from sparsedigraph.digraph import Digraph

import check
import gen

# one round's job time at the reference speed (see run.py); a run of S
# seconds measures ceil(S / NOMINAL_ROUND_S) whole rounds, so every run of
# a workload has the same jobs whatever the host's speed.  The job counts
# per round are chosen so that, at run_seconds = 20, the median and the
# tail percentile fall inside clusters of like jobs.
NOMINAL_ROUND_S = {"wcol-ladder": 9.0, "domination": 16.0, "steiner": 2.3}

# seconds spent so far computing expected answers (optima and greedy
# sizes, which set budgets and feed the checks); run.py keeps them out of
# the set-up time
answer_s = 0.0


def _answer(fn, *args):
    global answer_s
    start = perf_counter()
    try:
        return fn(*args)
    finally:
        answer_s += perf_counter() - start


@dataclass
class Job:
    """One command-line invocation and the check of its output.

    ``check(code, report)`` returns ``(error or None, quality dict)``.
    ``recipe`` reproduces the job's instance.  ``kind`` groups the
    random-graph rungs of one command for the latency-against-m slope;
    ``graph`` and ``r`` let the traced run compute reference orders for
    ``wcol`` jobs.
    """

    name: str
    argv: list
    check: Callable
    recipe: str
    kind: str = ""
    m: int = 0
    graph: Optional[gen.Graph] = None
    r: int = 0


def build_round(workload: str, seed: int, rnd: int, workdir: str) -> list[Job]:
    """Generate round ``rnd``'s instances under ``workdir`` and its jobs.

    The first job runs on a fixed instance, so the set-up's warm-up job
    costs the same whatever the seed.
    """
    out = gen.ensure_dir(os.path.join(workdir, f"round{rnd}"))
    return _BUILDERS[workload](seed, rnd, out)


def _graph_file(out: str, stem: str, g: gen.Graph) -> str:
    path = os.path.join(out, f"{stem}.dg")
    gen.write_graph(path, g)
    return path


# ---------------------------------------------------------------------------
# wcol-ladder

LADDER = (200, 400, 800, 1600)
CROWN_Q = (10, 14, 20, 28)  # apex crowns with about n/4 vertices per rung
# copies per rung: as many jobs sit below the four r=2, n=400 copies as
# above them, so the median falls inside that cluster of like jobs, and in
# a 3-round run the tail percentile falls mid-way into the twelve r=2,
# n=1600 jobs


def _wcol(seed: int, rnd: int, out: str) -> list[Job]:
    jobs = []
    for n, q in zip(LADDER, CROWN_Q):
        for stem, g, r in ((f"wcol-r3-path{n // 4}",
                            gen.package_graph(f"directed_path({n // 4})", directed_path(n // 4)), 3),
                           (f"wcol-r2-apexcrown{q}",
                            gen.package_graph(f"apex_crown({q})", apex_crown(q)), 2)):
            jobs.append(Job(stem, ["wcol", _graph_file(out, stem, g), "--radius", str(r)],
                            partial(check.check_wcol, g, r), g.recipe, graph=g, r=r))
    for r, copies in ((2, (2, 4, 2, 4)), (3, (2, 4, 2, 1))):
        for n, count in zip(LADDER, copies):
            for copy in range(1, count + 1):
                stem = f"wcol-r{r}-sparse{n}-{copy}"
                g = gen.random_graph(n, 3 * n, seed, f"{stem}-round{rnd}")
                jobs.append(Job(stem, ["wcol", _graph_file(out, stem, g), "--radius", str(r)],
                                partial(check.check_wcol, g, r), g.recipe,
                                kind=f"wcol r={r}", m=3 * n, graph=g, r=r))
    return jobs


# ---------------------------------------------------------------------------
# domination


def _domset(out, stem, g, r, red=None, optimum=None) -> Job:
    argv = ["domset", _graph_file(out, stem, g), "--radius", str(r)]
    reds = range(g.n)
    if red is not None:
        reds = sorted(red)
        red_path = os.path.join(out, f"{stem}.red")
        gen.write_vertices(red_path, reds)
        argv += ["--red", red_path]
    return Job(stem, argv,
               partial(check.check_domset, g, r, reds, range(g.n), optimum=optimum),
               g.recipe)


def _kernel(out, stem, g, r, k, greedy_size, emit=False) -> Job:
    argv = ["kernel", _graph_file(out, stem, g), "--radius", str(r), "--budget", str(k)]
    kernel_path = None
    if emit:
        kernel_path = os.path.join(out, f"{stem}.kernel.dg")
        argv += ["--emit-kernel", kernel_path]
    return Job(stem, argv,
               partial(check.check_kernel, g, r, k, greedy_size=greedy_size,
                       kernel_path=kernel_path),
               g.recipe)


def _domination(seed: int, rnd: int, out: str) -> list[Job]:
    jobs = []
    for q, r in ((20, 1), (30, 1), (40, 1), (30, 2)):
        stem = f"domset-r{r}-apexcrown{q}"
        g = gen.package_graph(f"apex_crown({q})", apex_crown(q))
        optimum = math.ceil(q / 2) + 1 if r == 1 else 1
        jobs.append(_domset(out, stem, g, r, optimum=optimum))
    g = gen.package_graph("apex_crown(20)", apex_crown(20))
    greedy1 = len(_answer(check.greedy_dominator, g, 1))
    jobs.append(_kernel(out, "kernel-r1-apexcrown20-below", g, 1, 10, greedy1))
    jobs.append(_kernel(out, "kernel-r1-apexcrown20-at", g, 1, 11, greedy1))
    jobs.append(_kernel(out, "kernel-r2-apexcrown20", g, 2, 1,
                        len(_answer(check.greedy_dominator, g, 2))))
    # several copies per kind, so that the median and the tail fall inside
    # a cluster of like jobs rather than between two kinds
    for r, n, quarter, copies in ((1, 150, False, 3), (1, 500, True, 2),
                                  (2, 250, False, 3), (2, 1000, True, 9)):
        for copy in range(1, copies + 1):
            stem = f"domset-r{r}-sparse{n}-{'quarter' if quarter else 'all'}-{copy}"
            g = gen.random_graph(n, 3 * n, seed, f"{stem}-round{rnd}")
            if quarter:
                label = f"{stem}-red-round{rnd}"
                jobs.append(_domset(out, stem, g, r,
                                    red=gen.rng_for(seed, label).sample(range(n), n // 4)))
                jobs[-1].recipe += f"; red: sample of n//4 seed={seed} label={label}"
            else:
                jobs.append(_domset(out, stem, g, r))
    for r, copies in ((1, 2), (2, 1)):
        for copy in range(1, copies + 1):
            stem = f"kernel-r{r}-sparse250-{copy}"
            g = gen.random_graph(250, 750, seed, f"{stem}-round{rnd}")
            greedy = len(_answer(check.greedy_dominator, g, r))
            jobs.append(_kernel(out, f"{stem}-below", g, r, max(1, greedy // 4), greedy))
            jobs.append(_kernel(out, f"{stem}-above", g, r, greedy, greedy))
    # desk scale: exact optimum and kernel decision checked by the oracles
    for r, copy in ((1, 1), (1, 2), (2, 1), (2, 2)):
        stem = f"desk-r{r}-sparse14-{copy}"
        g = gen.random_graph(14, 42, seed, f"{stem}-round{rnd}")
        gamma = _answer(lambda: gamma_r_exact(Digraph(g.n, g.arcs), r)[0])
        jobs.append(_domset(out, f"{stem}-domset", g, r, optimum=gamma))
        greedy = len(_answer(check.greedy_dominator, g, r))
        for k in (gamma - 1, gamma):
            jobs.append(_kernel(out, f"{stem}-kernel{k}", g, r, k, greedy, emit=True))
    # fails today with RecursionError (recursive independence-tree walks);
    # gamma_1 of a directed path on n vertices is ceil(n/2)
    path = gen.package_graph("directed_path(3000)", directed_path(3000))
    jobs.append(_kernel(out, "kernel-r1-path3000", path, 1, 2000, 1500))
    return jobs


# ---------------------------------------------------------------------------
# steiner

# (n, terminals) per host; the third n=800 host puts as many jobs above
# the n=400 --fpt jobs as below them, so the median falls inside them
HOSTS = ((200, 11), (200, 12), (400, 11), (400, 12), (800, 11), (800, 12), (800, 11))


def _dst_jobs(out, stem, host, optimum, exact=False, kind_prefix="") -> list[Job]:
    jobs = []
    budgets = [("b4", 4), ("b5", 5)]
    if optimum:
        budgets.append(("infeasible", optimum - 1))
    for tag, budget in budgets:
        path = os.path.join(out, f"{stem}-{tag}.dst")
        gen.write_dst(path, host, budget)
        jobs.append(Job(f"{stem}-fpt-{tag}", ["dst", path, "--fpt"],
                        partial(check.check_dst, host, budget, optimum=optimum, exact=exact),
                        f"{host.graph.recipe} budget={budget}", kind=f"{kind_prefix}fpt {tag}" if kind_prefix else "",
                        m=len(host.graph.arcs)))
    return jobs


def _steiner(seed: int, rnd: int, out: str) -> list[Job]:
    jobs = []
    stem = "steiner-desk-n24-k11"
    host = gen.steiner_host(24, 11, seed, f"{stem}-round{rnd}")
    jobs += _dst_jobs(out, stem, host, _answer(check.planted_optimum, host), exact=True)
    for copy, (n, k) in enumerate(HOSTS):
        stem = f"steiner-n{n}-k{k}-{copy}"
        host = gen.steiner_host(n, k, seed, f"{stem}-round{rnd}")
        jobs += _dst_jobs(out, stem, host, _answer(check.planted_optimum, host), kind_prefix=f"k={k} ")
        path = os.path.join(out, f"{stem}-scss.dst")
        gen.write_dst(path, host, 5)
        jobs.append(Job(f"{stem}-scss-b5", ["dst", path, "--scss"],
                        partial(check.check_scss, host, 5),
                        f"{host.graph.recipe} budget=5", kind=f"k={k} scss", m=len(host.graph.arcs)))
    return jobs


_BUILDERS = {"wcol-ladder": _wcol, "domination": _domination, "steiner": _steiner}
