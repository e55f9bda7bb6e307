"""The graph and Steiner instance readers against their earlier two-pass
bodies: the same graph (in-lists included) or the same exception type and
message, on valid files and on files with one or two faults."""
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedigraph.digraph import MAX_PARSE_N, Digraph, parse_digraph
from sparsedigraph.errors import SizeCapError
from sparsedigraph.steiner import parse_dst_instance
from sparsedigraph.steiner_types import DstInstance


def _parse_digraph_reference(text: str) -> Digraph:
    """``parse_digraph`` as it was: strip and filter, then one arc at a time."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty digraph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "digraph":
        raise ValueError(f"bad header line: {lines[0]!r}")
    n, m = int(head[1]), int(head[2])
    if n > MAX_PARSE_N:
        raise SizeCapError(f"digraph header: n={n} exceeds cap {MAX_PARSE_N}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} arc lines, found {len(lines) - 1}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad arc line: {ln!r}")
        arcs.append((int(parts[0]), int(parts[1])))
    return Digraph(n, arcs)


def _parse_dst_reference(text: str) -> DstInstance:
    """``parse_dst_instance`` as it was: the graph lines are joined back
    into text and parsed again."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    graph_lines = []
    rest = []
    for ln in lines:
        if ln.split()[0] in ("root", "terminal", "budget"):
            rest.append(ln)
        else:
            graph_lines.append(ln)
    g = _parse_digraph_reference("\n".join(graph_lines))
    root = None
    budget = None
    terminals = set()
    for ln in rest:
        key, value = ln.split()
        if key == "root":
            root = int(value)
        elif key == "terminal":
            terminals.add(int(value))
        else:
            budget = int(value)
    if root is None or budget is None:
        raise ValueError("instance file needs root and budget lines")
    return DstInstance(g, root, frozenset(terminals), budget)


SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
PADDING = st.sampled_from(["", "", " ", "\t", "  \t"])
NOISE = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#root 1", "#"])
# tokens int() rejects, a few starting with a keyword's first letter, and
# two it accepts although they are not plain ASCII digits
BAD_TOKENS = st.sampled_from(["x", "1.5", "0x1", "--1", "rx", "t", "b2", "", "1_0", "٣"])
GRAPH_FAULTS = ["one-token", "three-token", "non-int", "bad-header", "count", "loop",
                "duplicate", "range", "cap"]
DST_FAULTS = GRAPH_FAULTS + ["no-root", "no-budget", "bad-value"]


@st.composite
def instance_files(draw, dst: bool, faults: int) -> str:
    """A digraph file (with root, terminal and budget lines when ``dst``)
    with ``faults`` faults drawn from the lists above, padded with blank
    lines, comments, tabs and runs of spaces."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    head_n, shift, bad_header = n, 0, None  # the header counts len(body) + shift arcs
    body = [[u, v] for u, v in arcs]
    keys = []
    if dst:
        vertex = st.integers(0, n - 1) if n else st.just(0)
        terminals = draw(st.lists(vertex, max_size=3))
        keys = [["root", draw(vertex)], ["budget", draw(st.integers(0, 3))]]
        keys += [["terminal", t] for t in terminals]
    for fault in draw(st.lists(st.sampled_from(DST_FAULTS if dst else GRAPH_FAULTS),
                               min_size=faults, max_size=faults)):
        spot = draw(st.integers(0, len(body)))
        if fault == "one-token":
            body.insert(spot, [draw(st.integers(0, 7))])
        elif fault == "three-token":
            body.insert(spot, [0, 1, draw(st.integers(0, 7))])
        elif fault == "non-int":
            body.insert(spot, draw(st.permutations([draw(BAD_TOKENS), 1])))
        elif fault == "bad-header":
            bad_header = draw(st.sampled_from([["graph"], ["digraph", n], ["digraph", "x", 0],
                                               ["digraph", n, len(arcs), 0]]))
        elif fault == "count":
            shift = draw(st.sampled_from([-1, 1]))
        elif fault == "loop":
            body.insert(spot, [spot % 8] * 2)
        elif fault == "duplicate" and body:
            body.insert(spot, list(body[draw(st.integers(0, len(body) - 1))]))
        elif fault == "range":
            body.insert(spot, draw(st.sampled_from([[0, n], [n + 3, 0], [-1, 0]])))
        elif fault == "cap":
            head_n = MAX_PARSE_N + 1
        elif fault in ("no-root", "no-budget"):
            keys = [k for k in keys if k[0] != fault[3:]]
        elif fault == "bad-value" and keys:
            keys[draw(st.integers(0, len(keys) - 1))][1] = draw(BAD_TOKENS.filter(bool))
    header = ["digraph", head_n, len(body) + shift]
    if bad_header is not None:
        header = bad_header if len(bad_header) != 1 else bad_header + header[1:]
    lines = [header] + body
    for extra in keys + [None] * draw(st.integers(0, 4)):  # None: a noise line
        lines.insert(draw(st.integers(0, len(lines))), extra)

    def render(tokens):
        if tokens is None:
            return draw(NOISE)
        return draw(PADDING) + draw(SEPARATORS).join(map(str, tokens)) + draw(PADDING)

    return "\n".join(render(tokens) for tokens in lines) + draw(st.sampled_from(["", "\n"]))


def outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, SizeCapError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    assert got == want
    if isinstance(want, DstInstance):
        got, want = got.graph, want.graph
    if isinstance(want, Digraph):
        assert (got._in, got.m) == (want._in, want.m)


@given(st.integers(0, 2).flatmap(lambda faults: instance_files(False, faults)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_digraph_matches_two_pass_reference(text):
    assert_same_outcome(outcome(parse_digraph, text),
                        outcome(_parse_digraph_reference, text))


@given(st.integers(0, 2).flatmap(lambda faults: instance_files(True, faults)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_dst_instance_matches_two_pass_reference(text):
    assert_same_outcome(outcome(parse_dst_instance, text),
                        outcome(_parse_dst_reference, text))


def test_readers_on_fixed_cases():
    """A valid file, each kind of first fault in an arc line, and keyword
    lines before, among and after the arcs."""
    texts = {
        "valid": "# c\n\ndigraph 3 2\n0\t1\n  1  2  \n",
        "arc": "digraph 2 1\n0 1 1\n",
        "int": "digraph 2 1\n0 x\n",
        "keys": "root 0\ndigraph 2 1\nbudget 1\n0 1\nterminal 1\n",
    }
    for text in texts.values():
        assert_same_outcome(outcome(parse_digraph, text), outcome(_parse_digraph_reference, text))
        assert_same_outcome(outcome(parse_dst_instance, text), outcome(_parse_dst_reference, text))
    assert outcome(parse_digraph, texts["arc"]) == (ValueError, "bad arc line: '0 1 1'")
    assert outcome(parse_digraph, texts["int"])[1].startswith("invalid literal for int()")
    assert parse_dst_instance(texts["keys"]) == DstInstance(Digraph(2, [(0, 1)]), 0,
                                                            frozenset({1}), 1)
