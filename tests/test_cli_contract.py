"""Contract fuzz of the command line: whatever the input, a run exits with
a documented code and prints on stdout what that code promises.

- The exit code is 0, 1, 2 or 3; 4 marks an internal fault, which no
  input may cause.
- Exit 0, and exit 1 from a negative decision, print one report with
  ``schema`` 1: a JSON object, or tab-separated pairs under ``--format
  tsv``.  ``gen`` without ``--output`` prints the graph file instead.
- Exit 1 from an ``infeasible:`` error, exit 2 and exit 3 print nothing
  on stdout.

Inputs are every subcommand on graphs with at most 6 vertices, with
radii, budgets and the other integer options in -2..3, crown orders up to
10^6, vertex lists with entries out of range, and graph and DST files
with lines dropped, repeated or overwritten.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph import Digraph, format_digraph, parse_digraph
from sparsedigraph.cli import main

# hypothesis leans towards a strategy's first and smallest choices, so
# values that usually pass the argument checks are listed first
SMALL = st.sampled_from(["2", "1", "3", "0", "-1", "-2"])
# a radius past MAX_PARSE_N: wcol and domset must not grow with it, and the
# kernel refuses its length-r paths
RADIUS = SMALL | st.just("1000000")
# crown orders whose crown has more vertices than any fuzzed host: ``minor``
# and ``oracle crown`` must answer from the order alone, building no crown
CROWN = SMALL | st.integers(4, 10**6).map(str)
TOKENS = st.sampled_from(["-1", "0", "2", "7", "x", "1.5", "", "digraph", "root", "budget",
                          "terminal", "99999999999"])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_cli(argv)
    tsv = argv[:2] == ["--format", "tsv"]
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3) or (code == 1 and err.startswith("infeasible:")):
        assert out == "", (argv, code, out)
    elif argv[2 if tsv else 0] == "gen" and "--output" not in argv:
        parse_digraph(out)
    elif tsv:
        pairs = [line.split("\t", 1) for line in out.splitlines()]
        assert all(len(p) == 2 for p in pairs) and ["schema", "1"] in pairs, (argv, out)
    else:
        assert json.loads(out)["schema"] == 1, (argv, out)


@st.composite
def mutated(draw, lines):
    """``lines`` joined into a file, perhaps with one line dropped,
    repeated, or overwritten by a few tokens."""
    lines = list(lines)
    kind = draw(st.sampled_from(["keep"] * 5 + ["drop", "repeat", "overwrite"]))
    if kind != "keep" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = " ".join(draw(st.lists(TOKENS, min_size=1, max_size=3)))
    return "\n".join(lines) + "\n"


@st.composite
def graph_lines(draw):
    n = draw(st.sampled_from([5, 3, 6, 4, 2, 1, 0]))
    vertex = st.integers(0, max(n - 1, 0))
    arcs = draw(st.sets(st.tuples(vertex, vertex), max_size=12)) if n else ()
    return n, format_digraph(Digraph(n, [(u, v) for u, v in arcs if u != v])).splitlines()


def options(draw, *flags, values=()):
    """Each flag of ``flags`` perhaps, and each option of ``values``
    perhaps, with a value drawn from -2..3, or from ``CROWN`` for
    ``--crown``."""
    argv = []
    for flag in flags:
        if draw(st.booleans()):
            argv.append(flag)
    for option in values:
        if draw(st.booleans()):
            argv += [option, draw(CROWN if option == "--crown" else SMALL)]
    return argv


@st.composite
def cli_runs(draw, command):
    """``(argv, files)`` for one run of ``command``: the arguments, with
    ``{name}`` placeholders for the files, and the text of each file."""
    n, lines = draw(graph_lines())
    # mostly vertices of the graph, sometimes one next to its range
    vertex = st.integers(0, n - 1) | st.integers(-2, n + 1) if n else st.integers(-2, 1)
    files = {"graph": draw(mutated(lines)), "out": ""}
    files["list"] = draw(mutated(draw(st.lists(vertex.map(str), max_size=4))))
    dst = lines + [f"root {draw(vertex)}"]
    dst += [f"terminal {t}" for t in draw(st.lists(vertex, max_size=3))]
    files["inst"] = draw(mutated(dst + [f"budget {draw(SMALL)}"]))
    if command == "gen":
        family = draw(st.sampled_from(["path", "crown", "apex-crown", "bidirected-clique",
                                       "random", "bogus"]))
        argv = ["gen", family, draw(st.sampled_from(["4", "1", "6", "0", "-2"]))]
        argv += options(draw, values=("--arcs", "--seed"))
        if draw(st.booleans()):
            argv += ["--output", "{out}"]
    elif command == "wcol":
        argv = ["wcol", "{graph}", "--radius", draw(RADIUS)]
        argv += options(draw, "--exact", "--tfa", values=("--coloring", "--max-n"))
    elif command == "minor":
        argv = ["minor", "{graph}", "--crown", draw(CROWN), "--depth", draw(SMALL)]
        argv += options(draw, values=("--max-n",))
    elif command == "dst":
        argv = ["dst", "{inst}"] + draw(st.sampled_from([[], ["--fpt"], ["--exact"],
                                                          ["--scss"]]))
        argv += options(draw, values=("--max-n",))
    elif command == "domset":
        argv = ["domset", "{graph}", "--radius", draw(RADIUS)]
        argv += options(draw, "--scds", "--oracle-ratio")
        for option in ("--red", "--blue"):
            if draw(st.booleans()):
                argv += [option, "{list}"]
    elif command == "kernel":
        argv = ["kernel", "{graph}", "--radius", draw(RADIUS), "--budget", draw(SMALL)]
        argv += options(draw, "--emit-core")
        if draw(st.booleans()):
            argv += ["--emit-kernel", "{out}"]
    else:
        kind = draw(st.sampled_from(["gamma", "alpha", "vc", "crown", "verify-dominating",
                                     "verify-scattered", "verify-strong"]))
        argv = ["oracle", "{graph}", kind]
        argv += options(draw, values=("--radius", "--crown", "--max-n"))
        if draw(st.booleans()):
            argv += ["--set", "{list}"]
    if draw(st.integers(0, 3)) == 0:
        argv = ["--format", "tsv"] + argv
    return argv, files


@pytest.mark.parametrize("command", ["gen", "wcol", "minor", "dst", "domset", "kernel",
                                     "oracle"])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_run_keeps_the_exit_code_contract(tmp_path_factory, command, data):
    argv, files = data.draw(cli_runs(command))
    tmp = tmp_path_factory.getbasetemp() / "cli_contract"
    tmp.mkdir(exist_ok=True)
    paths = {name: str(tmp / name) for name in files}
    for name, text in files.items():
        (tmp / name).write_text(text)
    assert_contract([a.format(**paths) for a in argv])


def test_selftest_keeps_the_exit_code_contract():
    assert_contract(["selftest"])
