import argparse
import ast
import functools
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import bidmc

import traffic
from code_lines import code_lines
from options import defaulted, flags


def test_every_library_module_is_imported_by_the_package_or_its_cli():
    # src/bidmc holds only what the library runs: importing the package and
    # its command-line front end (which alone loads the file formats in
    # bidmc.io) loads every module.  Test-only code lives under tests/.
    src = Path(bidmc.__file__).resolve().parent
    expected = sorted(f"bidmc.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bidmc.cli; print(*sorted(m for m in sys.modules if m.startswith('bidmc.')))"],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = proc.stdout.split()
    assert [m for m in expected if m not in loaded] == []


def test_the_threshold_window_rule_lives_in_refine_alone():
    # The threshold and its tolerance are read only inside bidmc.refine;
    # every other module takes its window verdicts from refine._window and
    # refine._surely_fails.
    src = Path(bidmc.__file__).resolve().parent
    rule = re.compile(r"\b(_threshold|PHI_STRICT_TOL)\b")
    named = [p.name for p in sorted(src.glob("*.py")) if p.name != "refine.py" and rule.search(p.read_text())]
    assert named == []


@functools.cache
def _nodes():
    # (module, innermost enclosing function, node) of every AST node of the
    # library, "" for a node outside any function.
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        found.append((module, scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    src = Path(bidmc.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return found


def _scopes(matches):
    # (module, innermost enclosing function) of every AST node of the
    # library that ``matches``.
    return {(module, scope) for module, scope, node in _nodes() if matches(node)}


def _name(node):
    # The name a bare name or an attribute reads, else None.
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _functions_calling(name):
    # Where the library uses np.<name>.
    return _scopes(
        lambda node: isinstance(node, ast.Attribute) and node.attr == name and getattr(node.value, "id", None) == "np"
    )


def _functions_naming(name):
    # Where the library reads the bare name ``name`` (imports aside).
    return _scopes(lambda node: isinstance(node, ast.Name) and node.id == name)


def test_the_capacity_term_lives_in_channel_alone():
    # h(sigma) is computed only by binary_entropy, and the form of
    # 1 - h(sigma) that is accurate near 1/2 only by _capacity_term.
    assert _functions_calling("log2") == {("channel.py", "binary_entropy")}
    assert _functions_calling("arctanh") == {("channel.py", "_capacity_term")}


def test_one_dust_threshold():
    # blackwell._DUST is the one mass at or below which a remainder is
    # spent and a segment entry dropped: one module-level assignment of
    # 1e-15, which refine imports, and no second name for it.
    def assigns_1e_15(node):
        return isinstance(node, (ast.Assign, ast.AnnAssign)) and getattr(node.value, "value", None) == 1e-15

    assert [(module, scope) for module, scope, node in _nodes() if assigns_1e_15(node)] == [("blackwell.py", "")]
    assert _scopes(lambda node: _name(node) == "_MASS_TOL") == set()


def test_one_canonicalize_path_and_one_map():
    # Raw pairs are cleaned and merged only inside channel._canonicalize_stack,
    # so the merge's scalar hand-off has one caller; and no library code maps
    # memory: the DP reads its tables through strided views, and keeps no
    # cache that would need a map of its own.
    assert _functions_naming("_clean_pairs") == {("channel.py", "_canonicalize_stack")}
    assert _functions_naming("_merge_runs") == {("channel.py", "_canonicalize_stack")}
    assert _functions_naming("mmap") == set()
    assert _scopes(lambda node: isinstance(node, ast.alias) and node.name == "mmap") == set()


def test_one_segment_table_constructor():
    # search._segments alone builds the contiguous groups' table that every
    # searcher reads: the inside mask, the padded buffers and the strided
    # windows are named nowhere else, and the constructors it replaced are
    # gone.
    for name in ("_inside", "_padded", "as_strided"):
        assert _functions_naming(name) == {("search.py", "_segments")}
    assert _functions_naming("_segment_table") | _functions_naming("_band") == set()


def test_the_risk_oracle_and_the_witness_construction_share_no_code():
    # blackwell's two routes to the degradation order check each other, so
    # the curve code (the shared curve helper, the curve object's call and
    # the grid behind risk_dominates) names no part of the construction,
    # and the construction names no part of the curves.
    construction = {"_water_level", "_left_curtain", "find_degradation_witness"}
    curves = {"_bayes_risk", "__call__", "bayes_risk_curve", "_risk_grid", "risk_dominates"}

    def named_in(names):
        return {scope for name in names for module, scope in _functions_naming(name) if module == "blackwell.py"}

    assert named_in({"_bayes_risk"}) == {"__call__", "_risk_grid"}
    assert named_in({"_risk_grid"}) == {"risk_dominates"}
    assert named_in(construction) & curves == set()
    assert named_in(curves | {"BayesRiskCurve"}) & construction == set()


# Public names that neither the library nor the benchmark calls, each kept
# as an object of the paper.
_PAPER_OBJECTS = {
    "bsc": "B(e), the binary symmetric channel every mixture is built from",
    "bayes_risk_curve": "the Bayes-risk curve, the second characterization of the degradation order",
    "split_threshold": "the split threshold of two adjacent groups, the C-degradation window's edge",
}


def test_every_public_name_has_a_caller_or_is_a_paper_object():
    # bidmc exports what the library, the CLI, the experiments and the
    # benchmark call, and the paper's objects; helpers that only tests use
    # live in tests/.  A name counts as called where the library names it
    # outside __init__.py and its own definition, or a benchmark script
    # names it.
    bench = Path(bidmc.__file__).resolve().parents[2] / "benchmarks"
    in_bench = {_name(node) for path in bench.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))}
    in_library = {(module, scope, _name(node)) for module, scope, node in _nodes()}
    public = [
        name for name, value in vars(bidmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]

    def called(name):
        home = getattr(bidmc, name).__module__.rsplit(".", 1)[1] + ".py"
        return name in in_bench or any(n == name and (m, s) != (home, name) for m, s, n in in_library)

    assert sorted(name for name in public if not called(name)) == sorted(_PAPER_OBJECTS)


def test_the_public_surface_is_declared_once():
    # The explicit imports of __init__.py are the package's API; no other
    # module keeps a list of its own public names beside them.
    def assigns_all(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return False
        return any(_name(target) == "__all__" for target in targets)

    assert {module for module, scope in _scopes(assigns_all)} - {"__init__.py"} == set()


def test_only_the_cli_writes_files():
    # Library modules return text; bidmc.cli's main is the one writer.
    src = Path(bidmc.__file__).resolve().parent
    writes = re.compile(r"\bopen\(|\.write_text\(|\.write\(")
    named = [p.name for p in sorted(src.glob("*.py")) if p.name != "cli.py" and writes.search(p.read_text())]
    assert named == []


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    y = (x +
         1)

    return """a string, not a docstring,
over two lines"""
'''
    # import, def, the two lines of y and the two of the returned string
    assert code_lines(source) == 6


def test_options_count_defaulted_parameters_and_subcommand_flags():
    source = '''
def f(a, b=1, *args, c, d=None, **kw):
    def g(x=0):
        return lambda t=1: t


class C:
    def m(self, y, z=2):
        pass
'''
    # Keyword-only defaults count, None among them; a lambda is no function.
    assert sorted(defaulted(source)) == ["f(b)", "f(d)", "g(x)", "m(z)"]
    parser = argparse.ArgumentParser()
    parser.add_argument("--top")
    sub = parser.add_subparsers()
    p = sub.add_parser("run")
    p.add_argument("path")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--dry", action="store_true")
    sub.add_parser("list")
    # Only the subcommands' optional flags, each under its long name.
    assert flags(parser) == ["run --count", "run --dry"]


def test_traffic_lists_the_function_body_statements_that_did_not_run(tmp_path):
    source = '''"""A module docstring."""


def f(x):
    """A docstring, left out."""
    if x > 0:
        y = (x +
             1)
    else:
        y = -x
    try:
        z = 1 / y
    except ZeroDivisionError:
        z = 0.0
    return z


def g():
    return 1


class C:
    def used(self):
        return f(1)

    def unused(self):
        pass
'''
    path = tmp_path / "synthetic.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module and class bodies run here, untraced
    hits = traffic.trace(lambda: (module.f(2), module.C().used()), tmp_path)
    # The else branch, the except clause's body, and g and C.unused, which
    # nothing called, as whole functions; the two lines of y count as run.
    assert traffic.unexecuted(source, hits[str(path)]) == [(10, 10), (14, 14), (18, 19), (26, 27)]
    # With f(0), 1 / y raises and the except clause runs.
    hits = traffic.trace(lambda: module.f(0), tmp_path)
    assert traffic.unexecuted(source, hits[str(path)]) == [(7, 8), (18, 19), (23, 24), (26, 27)]
