"""Every module-level import in the package is used by its module, every
module-level private function is used somewhere in the package, every
module-level ``MAX_*`` size cap is named in the README, every defaulted
parameter of a module-level function is passed by some call, no function
calls itself but ``cli._flatten``, no ``assert`` statement or ``raise
AssertionError`` stands in for ``InternalInvariantError``, the command
line loads the acceptance suite only for ``selftest``, importing it runs
no algorithm module, each command runs only the modules it calls, the
package re-exports its names lazily, and only ``errors`` words the radius
rule."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsedigraph
from test_traced_names import traced_targets

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "sparsedigraph"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}

# the package's public names in ``__all__``'s sorted order, pinned here
# because ``__all__`` is derived from the export table in ``__init__``
EXPORTED = """
    Augmentation ClosureResult CoreResult Digraph DirectedModel DstFptResult DstInstance
    DualityResult IndependenceTree InfeasibleError InstanceRecipe InternalInvariantError
    KernelResult LinearOrder ReduceOutcome SccDecomposition SizeCapError WcolOrder
    adm_exact adm_of_order alpha_r_exact apex_crown bidirected_clique closure
    compute_wcol_order contains_crown contract crown degeneracy directed_path
    distance_vector domination_core dominator_or_scattered dst_exact_enum dst_exact_subset
    dst_fpt dst_valid format_digraph gamma_r_exact grad grad_lower_bound in_ball
    independence_tree induced_subgraph is_depth_r_minor kernelize low_treedepth_coloring
    max_left_chain neighborhood_complexity order_from_augmentation out_ball parse_digraph
    parse_dst_instance preprocess_contract projection random_digraph
    redblue_dominate_approx redblue_exact_enum reduce_core remove_vertices scc scds_approx
    scss_2approx scss_exact_enum source_terminals tfa_augment top_grad validate_model
    vc_dimension_distance_r verify_dominating verify_scattered verify_strongly_connected
    wcol_exact wcol_infty_exact wcol_of_order wreach_all
""".split()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that never appear as a Name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_cli_loads_the_acceptance_suite_only_for_selftest():
    code = ("import sys, sparsedigraph.cli\n"
            "assert 'sparsedigraph.acceptance' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV, timeout=60)


def package_modules(code: str) -> dict[str, bool]:
    """Each ``sparsedigraph`` module in ``sys.modules`` after ``code`` runs
    in a fresh interpreter, mapped to whether its own code has run.  The
    probe reads each namespace with ``object.__getattribute__``, which
    loads no lazy module, and looks for the ``__builtins__`` that ``exec``
    puts in a namespace when it runs code there."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps({key: '__builtins__' in object.__getattribute__(mod, '__dict__')\n"
        "                  for key, mod in list(sys.modules.items())\n"
        "                  if key.split('.')[0] == 'sparsedigraph'}))\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=ENV, timeout=60,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_the_cli_runs_no_algorithm_module():
    ran = package_modules("import sparsedigraph.cli")
    assert sorted(key for key, done in ran.items() if done) == [
        "sparsedigraph", "sparsedigraph.cli", "sparsedigraph.errors"]


def test_importing_the_cli_registers_every_traced_module():
    # the traced bench run imports the cli, then looks its targets' modules up
    # in sys.modules; looking attributes up there runs them
    registered = package_modules("import sparsedigraph.cli")
    assert {f"sparsedigraph.{module}" for module, _, _ in traced_targets()} <= set(registered)


@pytest.mark.parametrize("argv, idle", [
    (["wcol", "{path}", "--radius", "2"],
     ["steiner", "duality", "minors", "domination", "oracles"]),
    (["dst", "{instance}", "--fpt"], ["coloring", "duality", "minors", "domination"]),
], ids=["wcol", "dst"])
def test_a_command_runs_only_the_modules_it_calls(tmp_path, argv, idle):
    files = {"path": tmp_path / "path.dg", "instance": tmp_path / "path.dst"}
    files["path"].write_text("digraph 3 2\n0 1\n1 2\n")
    files["instance"].write_text("digraph 3 2\n0 1\n1 2\nroot 0\nterminal 2\nbudget 2\n")
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    ran = package_modules(f"import sparsedigraph.cli\nassert sparsedigraph.cli.main({argv!r}) == 0")
    assert [m for m in idle if ran[f"sparsedigraph.{m}"]] == []


def test_package_exports_resolve_to_their_home_modules():
    assert sparsedigraph.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(sparsedigraph))
    for name in EXPORTED:
        obj = getattr(sparsedigraph, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    namespace: dict = {}
    exec("from sparsedigraph import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    for name in ("no_such_name", "crown_subdivision_vertex", "format_dst_instance"):
        with pytest.raises(AttributeError):
            getattr(sparsedigraph, name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    assert unused_imports("import random\nfrom .coloring import order\n") == \
        ["random", "order"]
    assert unused_imports("from __future__ import annotations\nimport math\n"
                          "x = math.pi\n") == []


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``def _name`` that no other
    top-level statement of any module refers to as a Name or attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    uses = [(top, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                   if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in trees.values() for top in tree.body]
    return [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in names for top, names in uses if top is not node)]


def test_private_helpers_are_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert dead_private_helpers(sources) == []


def test_dead_private_helper_is_caught():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(k):\n    return _dead(k - 1)\n",
        "b": "from .a import _used, _dead\nx = _used()\n",
        "c": "import a\ndef __getattr__(name):\n    return a._used\n",
    }
    assert dead_private_helpers(sources) == ["a._dead"]


def undocumented_caps(sources: dict[str, str], readme: str) -> list[str]:
    """``module.NAME`` of each module-level ``MAX_*`` constant that the
    README does not name in that form."""
    caps = []
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            caps += [f"{mod}.{t.id}" for t in targets
                     if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    return [name for name in caps if name not in readme]


def test_size_caps_are_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert undocumented_caps(sources, readme) == []


def test_undocumented_cap_is_caught():
    sources = {"a": "MAX_SHOWN = 1\nMAX_HIDDEN: int = 2\nOTHER = 3\n",
               "b": "def f():\n    MAX_LOCAL = 4\n"}
    assert undocumented_caps(sources, "`a.MAX_SHOWN` caps it") == ["a.MAX_HIDDEN"]


def unset_keywords(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.param`` of each defaulted parameter of a
    module-level function in ``sources`` that no call in ``callers`` passes,
    by keyword or by position.  A call through ``*`` or ``**`` passes them
    all.  Calls are matched to functions by name."""
    defaulted = {}
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                names = positional[len(positional) - len(a.defaults):]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                defaulted.setdefault(node.name, []).append((mod, positional, names))
    passed = {name: set() for name in defaulted}
    for src in callers:
        for call in ast.walk(ast.parse(src)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            for _, positional, names in defaulted.get(name, ()):
                if (any(isinstance(x, ast.Starred) for x in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed[name].update(names)
                passed[name].update(positional[:len(call.args)])
                passed[name].update(k.arg for k in call.keywords)
    return sorted(f"{mod}.{fn}.{p}" for fn, entries in defaulted.items()
                  for mod, _, names in entries for p in names if p not in passed[fn])


def test_every_keyword_is_passed_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    callers = [p.read_text(encoding="utf-8")
               for top in ("src", "tests", "demos", "perfbench")
               for p in sorted((REPO / top).rglob("*.py"))]
    assert unset_keywords(sources, callers) == []


def test_unset_keyword_is_caught():
    sources = {"a": "def f(x, y=1, *, z=2, w):\n    pass\n\n"
                    "def g(x=0, y=0):\n    pass\n\n"
                    "def h(x=0):\n    pass\n\n"
                    "class C:\n    def m(self, q=0):\n        pass\n"}
    callers = ["f(0, w=1)\nmod.f(0, 1, w=2)\ng(*args)\n",
               "h(**kw)\nobj.m()\n"]
    assert unset_keywords(sources, callers) == ["a.f.z"]
    assert unset_keywords(sources, callers + ["f(0, z=3, w=1)"]) == []


def self_referring_functions(sources: dict[str, str]) -> list[str]:
    """Dotted names (``module.outer.inner``, ``module.Class.method``) of
    the functions whose bodies refer to their own names: as a Name, or
    for a method as an attribute of ``self`` or ``cls``."""
    found = []
    todo = [(mod, ast.parse(src)) for mod, src in sources.items()]
    while todo:
        prefix, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo.append((prefix, child))
                continue
            name = f"{prefix}.{child.name}"
            todo.append((name, child))
            if isinstance(child, ast.ClassDef):
                continue
            method = isinstance(node, ast.ClassDef)
            for n in (n for stmt in child.body for n in ast.walk(stmt)):
                if (isinstance(n, ast.Name) and n.id == child.name) or (
                        method and isinstance(n, ast.Attribute) and n.attr == child.name
                        and isinstance(n.value, ast.Name) and n.value.id in ("self", "cls")):
                    found.append(name)
                    break
    return sorted(found)


def test_no_function_calls_itself():
    # a search keeps its stack in a list: its depth costs no frames, and a
    # closure that calls itself would hold its own cell, a reference cycle.
    # _flatten recurses once per level of a report's nesting, at most 2
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert self_referring_functions(sources) == ["cli._flatten"]


def test_self_reference_is_caught():
    sources = {"a": "def f(n):\n    return f(n - 1) if n else 0\n\n"
                    "def g():\n    def rec(k):\n        return rec(k)\n    return rec\n\n"
                    "class C:\n    def m(self):\n        return self.m()\n\n"
                    "    def size(self, other):\n        return other.size\n",
               "b": "def loop(xs):\n    stack = list(xs)\n    while stack:\n"
                    "        stack.pop()\n    return g\n\n"
                    "def get():\n    return get\n"}
    assert self_referring_functions(sources) == ["a.C.m", "a.f", "a.g.rec", "b.get"]


def assertions(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each ``assert`` statement and each ``raise`` of
    ``AssertionError``, called or bare."""
    found = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                    isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{mod}:{node.lineno}")
    return sorted(found)


def test_postconditions_raise_internal_invariant_error():
    # ``python -O`` drops asserts, and the CLI reports an AssertionError as
    # an unexpected error, not as a failed invariant
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert assertions(sources) == []


def test_assertion_is_caught():
    sources = {"a": "def f(x):\n    assert x\n    if x:\n        raise AssertionError('no')\n",
               "b": "def g():\n    raise AssertionError\n\n"
                    "def h():\n    raise InternalInvariantError('ok')\n"}
    assert assertions(sources) == ["a:2", "a:4", "b:2"]


def test_the_radius_rule_has_one_home():
    # every radius check goes through errors._check_radius, so the rule
    # and its messages cannot drift apart between modules
    assert [p.name for p in SOURCES
            if p.name != "errors.py" and "radius must be" in p.read_text(encoding="utf-8")] == []
