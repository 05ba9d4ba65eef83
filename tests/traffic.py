"""A line map of what ``bidmc``'s callers run: the function-body statements
that none of them executes.

The callers are the command line and the benchmark.  Under ``sys.settrace``
this runs every subcommand on small channel files (each ``experiment``
table among them, in one process), then each workload of
``benchmarks/workloads.py`` (read, never changed) on seeds 0 and 1: its
inputs, ops and checks.  It prints, per module, each outermost statement
inside a function body that ran in none of them, a function that no caller
called as its ``def`` line, then the total.  From the line arcs of the same
run it then prints, per module, each ``if`` whose test ran but went the
same way every time, with the side it took ("always" into the body, or
"never"), then the counts.  Tests are not callers, so what it lists is
reached from the tests alone, or from nothing.  Module and class bodies
run at import and are left out.

Run as ``python tests/traffic.py`` from the repository root: ``OPS`` ops
per workload and seed (a tenth of them for ``polar-chain``) on ``SEEDS``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "bidmc"
OPS = 80
SEEDS = (0, 1)


def arcs(run, root: Path) -> dict[str, set[tuple[int, int]]]:
    """Run ``run()`` under ``sys.settrace`` and return, per source file
    under ``root``, the line arcs it took: (from, to) pairs of line
    numbers, 0 standing for a frame's entry or exit.  An exception in a
    frame makes the frame's next arc start at 0, so no arc leaves a line
    that raised."""
    taken: dict[str, set[tuple[int, int]]] = defaultdict(set)
    prefix = str(root)

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        found, prev = taken[frame.f_code.co_filename], 0

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                found.add((prev, frame.f_lineno))
                prev = frame.f_lineno
            elif event == "return":
                found.add((prev, 0))
            elif event == "exception":
                prev = 0
            return local

        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return taken


def lines(taken: dict[str, set[tuple[int, int]]]) -> dict[str, set[int]]:
    """The line numbers executed, per file, from its arcs."""
    return defaultdict(set, {path: {to for _, to in pairs if to} for path, pairs in taken.items()})


def trace(run, root: Path) -> dict[str, set[int]]:
    """Run ``run()`` under ``sys.settrace`` and return, per source file
    under ``root``, the line numbers it executed."""
    return lines(arcs(run, root))


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements in a statement's blocks (an except clause's and a
    match case's among them); a nested def or class is one statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out = []
    for field in ("body", "handlers", "cases", "orelse", "finalbody"):
        for child in getattr(stmt, field, ()):
            out += child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) else [child]
    return out


def _ran(stmt: ast.stmt, hit: set[int], ran: dict) -> bool:
    """Whether ``stmt`` ran: a line of its own (not of a statement inside
    it) was executed, or a statement inside it ran.  Fills ``ran``."""
    kids = _children(stmt)
    own = set(range(stmt.lineno, stmt.end_lineno + 1))
    for kid in kids:
        own -= set(range(kid.lineno, kid.end_lineno + 1))
    inner = [_ran(kid, hit, ran) for kid in kids]  # every kid, so each is filled in
    ran[stmt] = bool(own & hit) or any(inner)
    return ran[stmt]


def unexecuted(source: str, hit: set[int]) -> list[tuple[int, int]]:
    """The (first, last) lines of each outermost function-body statement of
    ``source`` that did not run, given the lines ``hit``; a function none of
    whose statements ran is one span, from its ``def`` line.  Docstrings
    are left out."""
    spans = []

    def walk(stmts):
        for stmt in stmts:
            if not ran[stmt]:
                spans.append((stmt.lineno, stmt.end_lineno))
            else:
                walk(_children(stmt))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            ran: dict = {}
            if body and not any([_ran(stmt, hit, ran) for stmt in body]):
                spans.append((node.lineno, node.end_lineno))
            else:
                walk(body)
    return sorted(set(spans))


def one_way(source: str, pairs: set[tuple[int, int]]) -> list[tuple[int, bool]]:
    """(line, taken) for each ``if`` statement of ``source`` whose test ran
    and always went one way, given the arcs ``pairs``: taken is True when
    every arc out of the test entered the body, False when none did.  An
    arc leaves the test from one of its lines for a line outside them; it
    enters the body when it lands within the body's lines.  An ``if`` whose
    body shares a line with its test is left out, and so is one whose test
    never ran, which ``unexecuted`` lists."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        if body.start in test:
            continue
        out = {to in body for start, to in pairs if start in test and to not in test}
        if len(out) == 1:
            found.append((node.lineno, out.pop()))
    return sorted(found)


def _channel_files(folder: Path) -> dict[str, str]:
    """Channel files for the commands: random channels of 12 and 4 particles
    as JSON, the first also as CSV and as a symmetric transition matrix."""
    from bidmc import instance_rng, random_channel
    from bidmc.io import channel_to_csv, channel_to_json_dict

    q, base = (random_channel(instance_rng(0, i), m) for i, m in ((0, 12), (1, 4)))
    # Each particle gives two outputs, one per input it favours.
    good, bad = zip(*[(p.weight * (1.0 - p.sigma), p.weight * p.sigma) for p in q.particles])
    rows = [[*good, *bad], [*bad, *good]]
    texts = {
        "q.json": json.dumps(channel_to_json_dict(q)),
        "q.csv": channel_to_csv(q),
        "t.json": json.dumps({"transition_matrix": rows}),
        "base.json": json.dumps(channel_to_json_dict(base)),
    }
    for name, text in texts.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in [*texts, "w.json", "d.json", "out.csv"]}


def _commands(f: dict[str, str]) -> list[list[str]]:
    """Every subcommand, each method and table, with the options that
    change what runs."""
    q, base = f["q.json"], f["base.json"]
    tables = [
        ["--table", "pplus-stats", "--m", "8 10", "--n", "3 4", "--samples", "4"],
        ["--table", "opt-clr", "--m", "10 16", "--n", "3 5", "--samples", "4", "--compare-full"],
        ["--table", "opt-clr", "--m", "12", "--n", "4", "--samples", "3", "--format", "csv"],
        ["--table", "arikan-clr", "--n", "3 4", "--samples", "4", "--c-stats"],
        ["--table", "arikan-clr", "--n", "4", "--samples", "3"],
        ["--table", "branch-clr", "--n", "3", "--depth", "3", "--samples", "3"],
    ]
    return [
        ["analyze", q],
        ["analyze", f["q.csv"], "--oracle"],
        ["analyze", f["t.json"]],
        ["degrade", q, "--n", "4"],
        ["degrade", q, "--n", "4", "--pruning", "off", "--oracle"],
        ["degrade", q, "--n", "5", "--method", "tv"],
        ["degrade", q, "--n", "5", "--method", "tv-star", "--oracle"],
        ["degrade", q, "--method", "mean", "--oracle"],
        ["degrade", q, "--n", "4", "--emit-witness", f["w.json"], "--output-channel", f["d.json"]],
        ["enumerate", q, "--n", "4", "--oracle"],
        ["enumerate", q, "--n", "3", "--format", "csv", "--output", f["out.csv"]],
        ["check", f["d.json"], q, "--emit-witness", f["w.json"], "--oracle"],
        ["check", q, f["d.json"], "--oracle"],
        ["check", base, q],
        *(["experiment", *table] for table in tables),
        ["polar", base, "--depth", "4", "--n", "4", "--oracle"],
        ["polar", q, "--depth", "2", "--n", "3", "--format", "csv"],
    ]


def run_cli() -> None:
    """Each of ``_commands`` through ``bidmc.cli.main``; one that does not
    exit 0 raises."""
    from bidmc.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for argv in _commands(_channel_files(Path(tmp))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"bidmc {' '.join(argv)} exited {code}: {out.getvalue()}")


def run_workloads() -> None:
    """Each benchmark workload's inputs, ops and checks; a failed check raises."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    for name, wl in WORKLOADS.items():
        for seed in SEEDS:
            for i in range(OPS // 10 if name == "polar-chain" else OPS):
                inp = wl.make(seed, i, False)
                bad = wl.check(inp, wl.summarise(inp, wl.op(inp)))
                if bad:
                    raise RuntimeError(f"{name} seed {seed} op {i}: {bad}")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    taken = arcs(lambda: (run_cli(), run_workloads()), LIBRARY)
    hits = lines(taken)
    paths = sorted(LIBRARY.rglob("*.py"))
    total = 0
    for path in paths:
        text = path.read_text().splitlines()
        spans = unexecuted(path.read_text(), hits[str(path)])
        total += len(spans)
        print(f"{path.relative_to(ROOT)}: {len(spans)}")
        for first, last in spans:
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {text[first - 1].strip()}")
    print(f"{total} statements or functions that no caller ran")
    sides = {True: 0, False: 0}
    for path in paths:
        text = path.read_text().splitlines()
        tests = one_way(path.read_text(), taken[str(path)])
        print(f"{path.relative_to(ROOT)}: {len(tests)} one-way if tests")
        for line, side in tests:
            sides[side] += 1
            print(f"  {line:>9}  {'always' if side else 'never '}  {text[line - 1].strip()}")
    print(f"{sides[False] + sides[True]} if tests that went one way: {sides[False]} never taken, {sides[True]} always taken")


if __name__ == "__main__":
    main()
