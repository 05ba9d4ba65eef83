"""Count settable options: the parameters with a default of every function
of a package, found by AST, and the optional flags of each subcommand of
the ``bidmc`` command line, found by argparse (``--help`` left out).

Run as ``python tests/options.py src/bidmc``: one line per option, then
the two counts and their total.

Run as ``python tests/options.py --callers src/bidmc benchmarks`` for the
traffic of each defaulted parameter of the first tree: how many call sites
in all the given trees pass it and how many omit it, found by AST with
functions matched by name (a plain or attribute call), a call with
``*args`` or ``**kwargs`` passing everything.  A parameter that no site
omits (a default nobody relies on) or that no site passes (a single value
in use) is marked, and so is one of a function that no site calls.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each parameter with a default of
    each function of a module's source, methods and nested functions
    included.  The position is the parameter's among a call's positional
    arguments (a method's first one, bound, left out), None for a
    keyword-only parameter."""
    tree = ast.parse(source)
    bound = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            shift = 1 if id(node) in bound else 0
            found += [(node.name, a.arg, k - shift) for k, a in enumerate(positional) if k >= first]
            keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(node.name, a.arg, None) for a in keyword]
    return found


def defaulted(source: str) -> list[str]:
    """``function(parameter)`` for each parameter with a default of each
    function of a module's source, methods and nested functions included."""
    return [f"{function}({name})" for function, name, _ in parameters(source)]


def call_sites(source: str) -> list[tuple[str, int, set[str] | None]]:
    """(name, positional arguments, keywords) of each call of a module's
    source by a plain or attribute name; keywords None for a call with
    ``*args`` or ``**kwargs``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            found.append((name, len(node.args), None if starred or None in keywords else keywords))
    return found


def traffic(params: list[tuple[str, str, int | None]], sites: list) -> list[tuple[int, int]]:
    """(passed, omitted): how many of the call sites of each parameter's
    function pass it and how many omit it."""
    counts = []
    for function, name, position in params:
        passes = [
            keywords is None or name in keywords or (position is not None and count > position)
            for called, count, keywords in sites
            if called == function
        ]
        counts.append((sum(passes), len(passes) - sum(passes)))
    return counts


def flags(parser: argparse.ArgumentParser) -> list[str]:
    """``command --flag`` for each optional flag of each subcommand."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                for opt in sub._actions:
                    if opt.option_strings and not isinstance(opt, argparse._HelpAction):
                        found.append(f"{command} {max(opt.option_strings, key=len)}")
    return found


# The mark of a parameter by whether some site passes it and some omits it.
_MARKS = {
    (True, False): "  <- no site omits",
    (False, True): "  <- no site passes",
    (False, False): "  <- no call site",
}


def callers(trees: list[str]) -> None:
    """Print each defaulted parameter of the first tree with its traffic
    over all the trees, marked where no site omits or no site passes it."""
    params, sites = [], []
    for root in trees:
        for path in sorted(Path(root).rglob("*.py")):
            source = path.read_text()
            if root == trees[0]:
                params += [(path, param) for param in parameters(source)]
            sites += call_sites(source)
    marked = 0
    for (path, (function, name, _)), (passed, omitted) in zip(params, traffic([p for _, p in params], sites)):
        mark = _MARKS.get((passed > 0, omitted > 0), "")
        marked += bool(mark)
        print(f"{path}: {function}({name}) passed {passed}, omitted {omitted}{mark}")
    print(f"{len(params)} parameters, {marked} marked")


def main(argv: list[str]) -> None:
    if argv[:1] == ["--callers"]:
        return callers(argv[1:])
    params = []
    for root in argv:
        for path in sorted(Path(root).rglob("*.py")):
            params += [f"{path}: {name}" for name in defaulted(path.read_text())]
        sys.path.insert(0, str(Path(root).resolve().parent))
    from bidmc.cli import build_parser

    options = flags(build_parser())
    print(*params, *options, sep="\n")
    print(f"{len(params)} parameters + {len(options)} flags = {len(params) + len(options)}")


if __name__ == "__main__":
    main(sys.argv[1:])
