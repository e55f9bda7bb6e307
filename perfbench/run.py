"""Closed-loop benchmark of the sparsedigraph command line.

    python3 perfbench/run.py --workload {wcol-ladder,domination,steiner}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  One client in one process runs the
workload's jobs through ``sparsedigraph.cli.main`` (in-process, stdout
captured), each job starting only after the previous one returned.  Jobs
come in rounds (see ``workloads.py``); a run measures a fixed number of
whole rounds, ``ceil(--seconds / NOMINAL_ROUND_S)``, so every run of a
workload has the same jobs and a faster package simply finishes sooner.
Every output is checked by ``check.py`` after its job, outside the timed
region.

Times are reported at a reference speed.  On the shared 2-core VM the
benchmark was tuned on, the speed of identical work drifted by up to half
between runs minutes apart, which no run length averages out.  So around
every job (outside the timed region) a fixed calibration loop is timed,
and each job's wall time is scaled by ``REFERENCE_CAL_S`` over the mean
of the two loop times that bracket it.  A change to the package moves the
scaled times; a drift in the host's speed does not.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds with every listed package function wrapped (``spans.py``), then
replays them untraced, and prints the per-layer metrics per round: span
times in seconds, counters, the quality numbers, and the tracing
overhead (traced minus untraced wall time).  Spans go to
``perfbench/work/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` describe the run.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPS = 5
# median time of calibration_loop() on the 2-core x86-64 VM (Python 3.11)
# the benchmark was tuned on; scaled times read as seconds there
REFERENCE_CAL_S = 0.0053


def _calibration_graph(n=3000, m=9000):
    rng = random.Random(0)
    adj = [[] for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
    return adj


CAL_ADJ = _calibration_graph()


def calibration_loop() -> float:
    """Seconds for a fixed mix of set, dict and bounded-BFS work, the
    kind of interpreter work the package does.  It uses none of the
    package's code, so no change to the package moves it."""
    start = perf_counter()
    seen, vals, acc = set(), {}, 0
    for i in range(20000):
        k = i * 7919 % 4093
        if k in seen:
            acc ^= vals[k]
        else:
            seen.add(k)
            vals[k] = i
    for src in range(0, len(CAL_ADJ), 75):
        reached, frontier = {src}, [src]
        for _ in range(4):
            nxt = []
            for x in frontier:
                for y in CAL_ADJ[x]:
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
    return perf_counter() - start


def speed_factor(readings) -> float:
    """Reference over measured calibration time: multiply wall times by
    this to get times at the reference speed."""
    return REFERENCE_CAL_S / statistics.median(readings)


@dataclass
class Outcome:
    """A job's result.  It keeps the job's name, kind and m but not the
    job, so a finished round's graphs can be freed."""

    name: str
    wall: float
    failed: bool
    kind: str = ""
    m: int = 0
    latency: float = 0.0  # wall time at the reference speed
    wrong: bool = False
    reason: str = ""
    quality: dict = field(default_factory=dict)


def execute(cli, job, tracer=None, job_id=None) -> Outcome:
    """Run one job; time only the call into the command line."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.start_job(job_id)
    start = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.main(job.argv)
        raised = None
    except Exception as exc:  # a job that raises is a counted failure
        code, raised = None, f"raised {type(exc).__name__}"
    wall = perf_counter() - start
    if tracer is not None:
        tracer.end_job()
    done = partial(Outcome, job.name, wall, kind=job.kind, m=job.m)
    if raised:
        return done(failed=True, reason=raised)
    if code not in (0, 1):
        return done(failed=True, reason=f"exit {code}")
    try:
        report = json.loads(buf.getvalue()) if buf.getvalue().strip() else None
        error, quality = job.check(code, report)
    except Exception as exc:  # malformed output counts as wrong
        error, quality = f"check raised {exc!r}", {}
    if error:
        return done(failed=True, wrong=True, reason=error)
    return done(failed=False, quality=quality)


def run_round(cli, jobs, rnd, tracer=None) -> list[Outcome]:
    """Run one round, with a calibration reading before the first job and
    after each one, and scale every job's wall time to the reference speed."""
    readings, done = [calibration_loop()], []
    for j, job in enumerate(jobs):
        done.append(execute(cli, job, tracer, job_id=f"{rnd}.{j}"))
        readings.append(calibration_loop())
    for j, out in enumerate(done):
        out.latency = out.wall * speed_factor(readings[j:j + 2])
    return done


# ---------------------------------------------------------------------------
# statistics


def ranked_latencies(outcomes) -> list[float]:
    """Successes by latency, then failures: a failed job ranks slower
    than every success."""
    ok = sorted(o.latency for o in outcomes if not o.failed)
    bad = sorted(o.latency for o in outcomes if o.failed)
    return ok + bad


def nearest_rank(ranked, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(ranked)) - 1)
    return ranked[idx]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    if n <= 10:
        return 100
    return (100 * (n - 10)) // n


def slope(outcomes) -> float:
    """Mean over job kinds of the least-squares slope of log median
    latency against log m across the kind's random-graph rungs."""
    by_kind: dict = {}
    for o in outcomes:
        if o.kind:
            by_kind.setdefault(o.kind, {}).setdefault(o.m, []).append(o.latency)
    slopes = []
    for rungs in by_kind.values():
        if len(rungs) < 2:
            continue
        xs = [math.log(m) for m in rungs]
        ys = [math.log(statistics.median(v)) for v in rungs.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                      / sum((x - mx) ** 2 for x in xs))
    return statistics.fmean(slopes) if slopes else 0.0


def end_to_end(outcomes, setup_s) -> tuple[dict, dict]:
    timed = sum(o.latency for o in outcomes)
    ranked = ranked_latencies(outcomes)
    pct = tail_percentile(len(ranked))
    completed = sum(not o.failed for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (completed / timed, "1/s"),
        "job_p50_ms": (1000 * nearest_rank(ranked, 50), "ms"),
        "job_tail_ms": (1000 * nearest_rank(ranked, pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = len(ranked) - math.ceil(pct / 100 * len(ranked))
    samples = {"setup_s": SETUP_REPS, "jobs_per_s": len(ranked),
               "job_p50_ms": len(ranked), "job_tail_ms": len(ranked),
               "peak_rss_mb": 1, "job_tail_percentile": pct,
               "job_tail_beyond": beyond}
    return metrics, samples


# per-layer rows: span name -> stats reported (calls, total_s, self_s)
LAYER_STATS = {
    "digraph.Digraph": ("calls", "self_s"),
    "digraph.degeneracy": ("calls", "self_s"),
    "digraph.ball": ("calls", "self_s"),
    "digraph.distances": ("calls", "self_s"),
    "digraph.remove_vertices": ("calls", "self_s"),
    "digraph.contract": ("self_s",),
    "digraph.induced_subgraph": ("self_s",),
    "digraph.scc": ("self_s",),
    "digraph.shortest_path": ("self_s",),
    "digraph.parse_digraph": ("self_s",),
    "coloring.tfa_augment": ("self_s",),
    "coloring.order_from_augmentation": ("self_s",),
    "coloring.compute_wcol_order": ("calls", "self_s"),
    "coloring.wreach_all": ("calls", "self_s"),
    "domination.redblue_dominate_approx": ("calls", "self_s"),
    "domination.distance_vector": ("self_s",),
    "duality.dominator_or_scattered": ("calls", "self_s"),
    "duality.independence_tree": ("self_s",),
    "duality.max_left_chain": ("self_s",),
    "duality.reduce_core": ("calls", "self_s"),
    "duality.domination_core": ("self_s",),
    "duality.kernelize": ("self_s",),
    "minors.grad_lower_bound": ("calls", "self_s"),
    "steiner.dst_fpt": ("calls", "self_s"),
    "steiner.preprocess_contract": ("calls", "self_s"),
    "steiner.dst_exact_subset": ("calls", "self_s"),
    "steiner.source_terminals": ("self_s",),
    "steiner.scss_2approx": ("self_s",),
    "oracles.verify_dominating": ("self_s",),
    "oracles.verify_scattered": ("self_s",),
    "oracles.verify_strongly_connected": ("self_s",),
    "oracles.dst_valid": ("self_s",),
    "cli.main": ("calls", "total_s", "self_s"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, replayed, rounds, overhead_s, references) -> tuple[dict, dict]:
    """Per-round layer metrics from the spans, counters and reports."""
    stats = tracer.layer_stats()
    metrics, samples = {}, {}
    for name, wanted in LAYER_STATS.items():
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        values = {"calls": (calls / rounds, "count"), "total_s": (total / rounds, "s"),
                  "self_s": (own / rounds, "s")}
        for stat in wanted:
            metrics[f"{name}.{stat}"] = values[stat]
            samples[f"{name}.{stat}"] = calls
    c = tracer.counters
    wcol_calls = stats.get("coloring.compute_wcol_order", (0,))[0]
    subset_calls = stats.get("steiner.dst_exact_subset", (0,))[0]
    metrics["coloring.compute_wcol_order.repeat_ratio"] = (
        _ratio(c["coloring.compute_wcol_order.repeats"], wcol_calls), "ratio")
    metrics["coloring.aug_arcs"] = (c["coloring.aug_arcs"] / rounds, "count")
    metrics["coloring.wreach_total"] = (c["coloring.wreach_total"] / rounds, "count")
    metrics["duality.anchors"] = (c["duality.anchors"] / rounds, "count")
    metrics["steiner.dst_fpt.nodes"] = (c["steiner.dst_fpt.nodes"] / rounds, "count")
    metrics["steiner.dst_exact_subset.hit_ratio"] = (
        _ratio(c["steiner.dst_exact_subset.hits"], subset_calls), "ratio")
    samples["coloring.compute_wcol_order.repeat_ratio"] = wcol_calls
    samples["steiner.dst_exact_subset.hit_ratio"] = subset_calls

    q = [o.quality for o in traced if not o.failed]
    engines = [x["engine"] for x in q if x.get("engine")]
    guesses = [x["k_guess"] for x in q if x.get("k_guess") is not None]
    metrics["domination.redblue_dominate_approx.net_win_ratio"] = (
        _ratio(engines.count("net"), len(engines)), "ratio")
    metrics["domination.k_guess_max"] = (max(guesses, default=0), "count")
    metrics["duality.core_rounds"] = (
        sum(x["core_rounds"] for x in q if x.get("core_rounds")) / rounds, "count")
    samples["domination.redblue_dominate_approx.net_win_ratio"] = len(engines)

    main_total = stats.get("cli.main", (0, 0.0))[1]
    heavy = sum(row[2] for name, row in stats.items() if name.startswith("coloring."))
    heavy += stats.get("digraph.degeneracy", (0, 0.0, 0.0))[2]
    metrics["trace.coloring_degeneracy_share"] = (_ratio(heavy, main_total), "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.spans"] = (len(tracer.spans) / rounds, "count")

    # quality numbers: named as in the issue, reported here because they
    # exist only on some workloads (see CHANGES.md)
    achieved = [x["achieved"] for x in q if "achieved" in x]
    guarantee = [x["guarantee"] for x in q if "guarantee" in x]
    dom_sizes = [x["size"] for x in q if "engine" in x]
    ratios = [x["size"] / x["optimum"] for x in q if x.get("optimum")]
    kernels = [x["kernel_n"] for x in q if x.get("kernel_n") and x["kernel_n"] > 0]
    metrics["time_vs_m_slope"] = (slope(replayed), "log-log")
    metrics["fail_ratio"] = (_ratio(sum(o.failed for o in traced), len(traced)), "ratio")
    metrics["wcol_achieved"] = (statistics.fmean(achieved) if achieved else 0.0, "vertices")
    metrics["wcol_guarantee"] = (statistics.fmean(guarantee) if guarantee else 0.0, "vertices")
    metrics["domset_size"] = (sum(dom_sizes) / rounds, "vertices")
    metrics["domset_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    metrics["kernel_n"] = (sum(kernels) / rounds, "vertices")
    for key in ("augmentation", "degeneracy", "degree"):
        vals = [ref[key] for ref in references]
        metrics[f"quality.{key}_order_wreach"] = (
            statistics.fmean(vals) if vals else 0.0, "vertices")
    samples.update({"fail_ratio": len(traced), "wcol_achieved": len(achieved),
                    "domset_ratio": len(ratios), "time_vs_m_slope": len(replayed)})
    return metrics, samples


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("wcol-ladder", "domination", "steiner"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsedigraph", "cli.py")):
        print(f"error: no sparsedigraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    factor = speed_factor([calibration_loop() for _ in range(SETUP_REPS)])
    start = perf_counter()
    import sparsedigraph.cli as cli
    import_s = (perf_counter() - start) * factor

    import check
    import workloads
    from spans import Tracer

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        def make_round(i):
            return workloads.build_round(args.workload, args.seed, i, workdir)

        # set-up: instance generation, file writes and one untimed warm-up
        # job, less the time spent computing expected answers (optima and
        # greedy sizes that set budgets and checks), at the reference speed
        setup_times = []
        for _ in range(SETUP_REPS):
            readings = [calibration_loop() for _ in range(SETUP_REPS)]
            answer_s = workloads.answer_s
            start = perf_counter()
            first = make_round(0)
            execute(cli, first[0])
            wall = perf_counter() - start - (workloads.answer_s - answer_s)
            setup_times.append(wall * speed_factor(readings))
        setup_s = import_s + statistics.median(setup_times)
        count = max(1, math.ceil(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]))
        recipes = []

        if not args.trace:
            # keep only each round's recipes, so its graphs can be freed
            outcomes = []
            for i in range(count):
                jobs = first if i == 0 else make_round(i)
                first = None
                recipes += [(i, job.name, job.recipe) for job in jobs]
                outcomes += run_round(cli, jobs, i)
                del jobs
            metrics, samples = end_to_end(outcomes, setup_s)
            checked = outcomes
        else:
            rounds = [first] + [make_round(i) for i in range(1, count)]
            recipes = [(i, job.name, job.recipe) for i, jobs in enumerate(rounds) for job in jobs]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [o for i, jobs in enumerate(rounds) for o in run_round(cli, jobs, i, tracer)]
            finally:
                tracer.uninstall()
            replayed = [o for i, jobs in enumerate(rounds) for o in run_round(cli, jobs, i)]
            traced_time = sum(o.wall for o in traced)
            replay_time = sum(o.wall for o in replayed)
            overhead_s = (traced_time - replay_time) / count
            references = []
            for job, o in zip(rounds[0], traced):
                if job.graph is not None and not o.failed:
                    ref = check.reference_orders(job.graph, job.r)
                    ref["augmentation"] = o.quality["achieved"]
                    references.append(ref)
                    print(f"# order quality {job.name}: augmentation={ref['augmentation']} "
                          f"degeneracy={ref['degeneracy']} degree={ref['degree']} "
                          f"guarantee={o.quality['guarantee']}")
            metrics, samples = per_layer(tracer, traced, replayed, count,
                                         overhead_s, references)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv")
            tracer.write(spans_path)
            print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
            print(f"# tracing overhead per round, wall clock: {overhead_s:.3f} s "
                  f"(traced {traced_time:.3f} s, untraced {replay_time:.3f} s, "
                  f"{count} rounds)")
            checked = traced + replayed
            outcomes = traced
        os.makedirs(WORK, exist_ok=True)
        recipes_path = os.path.join(WORK, f"recipes-{args.workload}-seed{args.seed}.tsv")
        with open(recipes_path, "w", encoding="utf-8") as fh:
            fh.write("round\tjob\trecipe\n")
            fh.writelines(f"{i}\t{name}\t{recipe}\n" for i, name, recipe in recipes)
        print(f"# instance recipes written to {os.path.relpath(recipes_path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures: dict = {}
    for o in checked:
        if o.failed:
            key = f"{o.name}: {o.reason}"
            failures[key] = failures.get(key, 0) + 1
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={count} jobs={len(outcomes)} failed={sum(o.failed for o in outcomes)}")
    for key, count in sorted(failures.items()):
        print(f"# failed x{count} {key}")
    print("# samples " + json.dumps(samples, sort_keys=True))
    result = {
        "correct": not any(o.wrong for o in checked),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
