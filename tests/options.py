"""Count settable options: the parameters with a default of every function
of a package, found by AST, and the optional flags of each subcommand of
the ``bidmc`` command line, found by argparse (``--help`` left out).

Run as ``python tests/options.py src/bidmc``: one line per option, then
the two counts and their total.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def defaulted(source: str) -> list[str]:
    """``function(parameter)`` for each parameter with a default of each
    function of a module's source, methods and nested functions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults) :]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{node.name}({a.arg})" for a in named]
    return found


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


def main(argv: list[str]) -> None:
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
