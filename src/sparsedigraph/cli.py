"""Command line interface.

Subcommands: gen, wcol, minor, dst, domset, kernel, oracle, selftest.
Results go to stdout as JSON (schema 1) or as flat tab-separated pairs
with --format tsv.  Vertex sets are emitted as sorted index arrays.
Identical invocations with identical seeds produce identical output up
to the timing field.

Exit codes: 0 success, 1 infeasible or negative decision, 2 usage error,
3 size-cap error, 4 internal invariant failure or unexpected error.

In-process callers of ``main`` share one argument parser, built on first
use (``build_parser`` is cached).  ``main`` pauses the cyclic garbage
collector for the call and restores the caller's setting afterwards.
Package code builds no reference cycles, so reference counting frees
memory while a command runs.

The algorithm modules are bound here unexecuted (the package registers
them lazily) and called through their module names, so importing this
module runs only it, the package and ``errors``, and each command runs
only the modules it calls.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from functools import cache
from typing import Optional

from . import coloring, digraph, domination, duality, instances, minors, oracles, steiner
from .errors import (InfeasibleError, InternalInvariantError, SizeCapError, _check_radius,
                     _check_vertices)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4


def _read_graph(path: str) -> digraph.Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return digraph.parse_digraph(fh.read())


def _read_vertex_list(path: str, n: int) -> list[int]:
    """The vertices listed one per line in ``path``, read past blank and
    comment lines as graph files are; the smallest one outside
    ``0..n-1``, if any, is named in a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        vertices = [int(ln) for ln in digraph._content_lines(fh.read())]
    _check_vertices(n, sorted(vertices))
    return vertices


def _flatten(prefix: str, value):
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            sep = "." if isinstance(inner, dict) else ""
            yield from _flatten(f"{prefix}{key}{sep}", inner)
    elif isinstance(value, (list, tuple)):
        yield prefix, " ".join(str(x) for x in value)
    else:
        yield prefix, value


def _emit(report: dict, fmt: str):
    if fmt == "tsv":
        for key, val in _flatten("", report):
            print(f"{key}\t{val}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_gen(args) -> tuple[int, dict]:
    if args.family != "random":
        for option, value in (("--arcs", args.arcs), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{option} applies only to the random family")
    recipe = instances.InstanceRecipe(args.family, args.size, arcs=args.arcs, seed=args.seed)
    g = recipe.build()
    text = digraph.format_digraph(g, comments=[recipe.describe()])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return EXIT_OK, {"written": args.output, "n": g.n, "m": g.m}
    sys.stdout.write(text)
    return EXIT_OK, {}


def _cmd_wcol(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    report: dict = {"n": g.n, "m": g.m, "radius": args.radius}
    if args.exact:
        value, order = coloring.wcol_exact(g, args.radius, max_n=args.max_n)
        report["exact"] = value
        report["exact_order"] = list(order.seq)
    if args.tfa or not args.exact:
        res = coloring.compute_wcol_order(g, args.radius)
        sizes = [len(s) for s in coloring.wreach_all(g, res.order, args.radius)]
        actual = max(sizes, default=0)
        report.update(
            {
                "order": list(res.order.seq),
                "guarantee": res.guarantee,
                "wreach_sizes": sizes,
                "achieved": actual,
                "valid": actual <= res.guarantee,
            }
        )
    if args.coloring is not None:
        colors = coloring.low_treedepth_coloring(g, args.coloring)
        report["coloring"] = colors
        report["colors_used"] = len(set(colors))
    return EXIT_OK, report


def _cmd_minor(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    model = minors.crown_model(g, args.crown, args.depth, max_n=args.max_n)
    found = model is not None
    report = {"crown": args.crown, "depth": args.depth, "found": found}
    if found:
        report["witness"] = {
            str(v): sorted(bs) for v, bs in model.branch_sets.items()
        }
    return (EXIT_OK if found else EXIT_NEGATIVE), report


def _cmd_dst(args) -> tuple[int, dict]:
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = steiner.parse_dst_instance(fh.read())
    report: dict = {
        "n": inst.graph.n,
        "root": inst.root,
        "terminals": sorted(inst.terminals),
        "budget": inst.budget,
    }
    if args.scss:
        terminals = frozenset(inst.terminals) | {inst.root}
        sol = steiner.scss_2approx(inst.graph, terminals, inst.budget)
    elif args.exact:
        sol = oracles.dst_exact_enum(inst, max_n=args.max_n, max_k=max(4, inst.budget))
    else:
        res = steiner.dst_fpt(inst)
        sol = res.solution
        report.update({"d": res.degree_threshold, "s": res.scc_diameter,
                       "nodes_expanded": list(res.nodes_per_budget)})
    report["feasible"] = sol is not None
    if sol is not None:
        report["solution"] = sorted(sol)
    return (EXIT_OK if sol is not None else EXIT_NEGATIVE), report


def _cmd_domset(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    report: dict = {"n": g.n, "radius": args.radius}
    if args.scds:
        stats: dict = {}
        sol = domination.scds_approx(g, args.radius, stats_out=stats)
        report.update({"solution": sorted(sol), "valid": True, **stats})
        return EXIT_OK, report
    red = _read_vertex_list(args.red, g.n) if args.red else list(range(g.n))
    blue = _read_vertex_list(args.blue, g.n) if args.blue else list(range(g.n))
    sol = domination.redblue_dominate_approx(g, red, blue, args.radius)
    report.update({"solution": sorted(sol), "valid": True})
    if args.oracle_ratio:
        opt = oracles.redblue_exact_enum(g, red, blue, args.radius, max_k=4)
        if opt is not None:
            report["ratio_vs_oracle"] = round(len(sol) / max(1, len(opt)), 3)
    return EXIT_OK, report


def _cmd_kernel(args) -> tuple[int, dict]:
    g = _read_graph(args.graph)
    res = duality.kernelize(g, args.radius, args.budget)
    report = {
        "radius": args.radius,
        "budget": args.budget,
        "kernel_budget": res.budget,
        "infeasible": res.infeasible,
        "core_size": len(res.core),
        "removed": list(res.removed),
        "representatives": list(res.representatives),
        "iterations": res.iterations,
        "threshold": res.threshold,
        "kernel_n": res.graph.n,
        "kernel_m": res.graph.m,
    }
    try:
        str(res.threshold)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        report["threshold"] = None
        report["threshold_log10"] = round(math.log10(res.threshold), 3)
    if args.emit_core:
        report["core"] = sorted(res.core)
    if args.emit_kernel:
        with open(args.emit_kernel, "w", encoding="utf-8") as fh:
            fh.write(digraph.format_digraph(res.graph, comments=["standard-form kernel"]))
        report["written"] = args.emit_kernel
    return (EXIT_NEGATIVE if res.infeasible else EXIT_OK), report


def _cmd_oracle(args) -> tuple[int, dict]:
    _check_radius(args.radius)  # verify-strong, which ignores it, too
    g = _read_graph(args.graph)
    report: dict = {"n": g.n, "radius": args.radius}
    if args.kind == "gamma":
        size, witness = oracles.gamma_r_exact(g, args.radius, max_n=args.max_n)
        report.update({"gamma": size, "witness": sorted(witness)})
    elif args.kind == "alpha":
        size, witness = oracles.alpha_r_exact(g, args.radius, max_n=args.max_n)
        report.update({"alpha": size, "witness": sorted(witness)})
    elif args.kind == "vc":
        dim, witness = domination.vc_dimension_distance_r(g, args.radius, max_n=args.max_n)
        report.update({"vc_dimension": dim, "witness": sorted(witness)})
    elif args.kind == "crown":
        found = minors.contains_crown(g, args.crown, args.radius, max_n=args.max_n)
        report.update({"crown": args.crown, "found": found})
        return (EXIT_OK if found else EXIT_NEGATIVE), report
    else:
        if not args.set:
            raise ValueError(f"oracle {args.kind} needs --set FILE")
        vertices = _read_vertex_list(args.set, g.n)
        if args.kind == "verify-dominating":
            ok = oracles.verify_dominating(g, vertices, args.radius)
        elif args.kind == "verify-scattered":
            ok = oracles.verify_scattered(g, vertices, args.radius)
        else:
            ok = oracles.verify_strongly_connected(g, vertices)
        report.update({"set": sorted(vertices), "valid": ok})
        return (EXIT_OK if ok else EXIT_NEGATIVE), report
    return EXIT_OK, report


def _cmd_selftest(args) -> tuple[int, dict]:
    from . import acceptance  # only this command loads the acceptance suite

    results = acceptance.run_all()
    ok = all(r.ok for r in results)
    return (EXIT_OK if ok else EXIT_NEGATIVE), {
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
    }


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not modify it.  It names no handler: ``_run``
    looks the ``_cmd_*`` function up when it dispatches."""
    parser = argparse.ArgumentParser(
        prog="sparsedigraph",
        description="Sparse digraph algorithm toolkit",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("family", choices=tuple(instances.FAMILIES))
    p.add_argument("size", type=int)
    p.add_argument("--arcs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("wcol", help="weak coloring orders")
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--tfa", action="store_true")
    p.add_argument("--coloring", type=int, metavar="P")
    p.add_argument("--max-n", type=int, default=9)

    p = sub.add_parser("minor", help="crown minor search")
    p.add_argument("graph")
    p.add_argument("--crown", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-n", type=int, default=12)

    p = sub.add_parser("dst", help="directed Steiner tree")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fpt", action="store_true")
    group.add_argument("--exact", action="store_true")
    group.add_argument(
        "--scss", action="store_true",
        help="strongly connected variant; root plus terminals form the terminal set",
    )
    p.add_argument("--max-n", type=int, default=12)

    p = sub.add_parser("domset", help="distance-r dominating sets")
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--red")
    p.add_argument("--blue")
    p.add_argument("--scds", action="store_true")
    p.add_argument(
        "--oracle-ratio", action="store_true",
        help="also report |D| / optimum when the enumeration oracle finds one",
    )

    p = sub.add_parser("kernel", help="domination kernelization")
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--emit-core", action="store_true")
    p.add_argument("--emit-kernel", metavar="FILE")

    p = sub.add_parser("oracle", help="exact brute-force references")
    p.add_argument("graph")
    p.add_argument(
        "kind",
        choices=(
            "gamma", "alpha", "vc", "crown",
            "verify-dominating", "verify-scattered", "verify-strong",
        ),
    )
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--crown", type=int, default=3)
    p.add_argument("--set", metavar="FILE", help="vertex list for the verify kinds")
    p.add_argument("--max-n", type=int, default=16)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # long-lived data need no cycle scans; package code makes no cycles
    try:
        return _run(argv)
    except Exception as exc:  # any other fault exits 4, without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


def _run(argv: Optional[list[str]]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        code, report = {
            "gen": _cmd_gen, "wcol": _cmd_wcol, "minor": _cmd_minor,
            "dst": _cmd_dst, "domset": _cmd_domset, "kernel": _cmd_kernel,
            "oracle": _cmd_oracle, "selftest": _cmd_selftest,
        }[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if report:
        report = {
            "schema": 1,
            "command": args.command,
            "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            **report,
        }
        _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
