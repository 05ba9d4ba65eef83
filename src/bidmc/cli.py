"""Command-line front end: it parses options, calls the library and prints.

Subcommands: analyze, degrade, enumerate, experiment, polar, check; the
experiment tables are ``bidmc.experiments``.  Exit codes: 0 ok, 1 usage, 2
validation (a malformed channel file, a file that cannot be read or
written, or an invalid option), 3 oracle mismatch, 4 internal error (a
RuntimeError or ValueError raised inside the library, reported with the
subcommand it stopped).  The
BIDMC_SEED environment variable overrides --seed.  Every report records
the seed it was produced with; a fixed configuration reproduces
bit-identical output.

``main`` is the one read-compute-write step: it resolves the seed and
checks every output path (writable, and no two outputs nor an output and an
input on one file), then runs the command, which returns its
artifacts and report as (path, text) pairs, no path meaning stdout;
``main`` alone writes them.  A run that fails writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import itertools
import math
import os
import sys

from . import experiments
from .blackwell import find_degradation_witness, risk_dominates
from .channel import (
    capacity,
    capacity_loss_rate,
    error_probability,
    lr_functional,
    lr_profile,
)
from .io import ChannelFormatError, _channel_text, _json_text, channel_to_json_dict, load_channel
from .polar import arikan_minus, arikan_plus, construct
from .refine import (
    PPlusPlan,
    is_c_degradation,
    plan_witness,
    realize_pplus,
    refine_cuts,
)
from .search import (
    BRUTE_FORCE_GUARD,
    brute_force_c_optimal,
    dp_tables,
    enumerate_c_degradations,
    tv_greedy_plan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_INTERNAL = 4

ORACLE_TOL = 1e-9


class ValidationError(Exception):
    pass


class OracleMismatch(Exception):
    pass


def _report(args, data: dict, csv_rows=None, csv_fields=None) -> tuple[str | None, str]:
    """The report's (path, text): the CSV rows with ``--format csv``, else
    the JSON of ``data`` and the seed."""
    if csv_rows is not None and args.format == "csv":
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields or list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)
        return args.output, buf.getvalue()
    return args.output, _json_text({**data, "seed": args.seed})


def _seed(args) -> int:
    env = os.environ.get("BIDMC_SEED")
    try:
        return args.seed if env is None else int(env)
    except ValueError:
        raise ValidationError(f"BIDMC_SEED must be an integer, got {env!r}") from None


# ----------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> list:
    chan = load_channel(args.channel)
    cap = capacity(chan)
    perr = error_probability(chan)
    if args.oracle:
        from .channel import binary_entropy

        cap2 = lr_functional(chan, lambda e: 1.0 - binary_entropy(e))
        perr2 = lr_functional(chan, lambda e: min(e, 1.0 - e))
        if abs(cap - cap2) > ORACLE_TOL or abs(perr - perr2) > ORACLE_TOL:
            raise OracleMismatch(f"profile functional disagrees: {cap} vs {cap2}, {perr} vs {perr2}")
    report = {
        "capacity": cap,
        "error_probability": perr,
        "particles": chan.size,
        "lr_profile": [[eps, mass] for eps, mass in lr_profile(chan).atoms],
    }
    return [_report(args, report)]


# ----------------------------------------------------------------------
# degrade


def _check_n(n: int, m: int, least: int) -> None:
    """--n must be in [2, m - least + 2] for a command that needs ``least``
    particles; a smaller channel is named as too small."""
    if m < least:
        raise ValidationError(f"--n needs a channel of at least {least} particles, this one has {m}")
    if not (2 <= n <= m - least + 2):
        raise ValidationError(f"--n must be in [2, {m - least + 2}], got {n}")


def cmd_degrade(args) -> list:
    chan = load_channel(args.channel)
    m = chan.size
    n = args.n
    if args.method != "mean" and n is None:
        raise ValidationError("--n is required for this method")
    if n is not None:
        _check_n(n, m, 2)
    table = None
    if args.method == "mean":
        from .blackwell import mean_degradation

        plan = PPlusPlan(chan, ())
        degraded = mean_degradation(chan)
    else:
        if args.method != "opt":
            plan = tv_greedy_plan(chan, n)
            plan = refine_cuts(plan) if args.method == "tv-star" else plan
        elif n < m:
            # The report prints the table's counters, which dp_tables builds
            # in one DP run; c_optimal_degradation gives the plan and
            # capacity only.
            plan, table = dp_tables([chan], n, args.pruning == "on")[0]
        else:
            plan = PPlusPlan(chan, tuple(range(2, m + 1)))
        degraded = realize_pplus(plan)

    cap_w = capacity(degraded)
    clr = capacity_loss_rate(capacity(chan), cap_w)
    if args.oracle and args.method != "mean" and n < m:
        if math.comb(m - 1, n - 1) > BRUTE_FORCE_GUARD:
            raise ValidationError("oracle infeasible: brute-force guard exceeded")
        _, best_cap = brute_force_c_optimal(chan, n)
        if args.method == "opt" and abs(best_cap - cap_w) > ORACLE_TOL:
            raise OracleMismatch(f"optimal capacity {cap_w} != brute force {best_cap}")
        if cap_w > best_cap + ORACLE_TOL:
            raise OracleMismatch(f"method capacity {cap_w} exceeds brute force {best_cap}")
    report = {
        "method": args.method,
        "n": degraded.size,
        "cuts": list(plan.cuts),
        "capacity": cap_w,
        "clr": clr,
        "evaluations": None if table is None else table.evaluations,
        "pruned_states": None if table is None else table.pruned_states,
        "channel": channel_to_json_dict(degraded),
    }
    outputs = []
    if args.emit_witness:
        outputs.append((args.emit_witness, _json_text(plan_witness(plan).to_json_dict())))
    if args.output_channel:
        outputs.append((args.output_channel, _channel_text(degraded, args.output_channel)))
    return outputs + [_report(args, report)]


# ----------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> list:
    chan = load_channel(args.channel)
    m = chan.size
    _check_n(args.n, m, 3)
    if args.oracle and math.comb(m - 1, args.n - 1) > BRUTE_FORCE_GUARD:
        raise ValidationError("oracle infeasible: brute-force guard exceeded")
    plans = enumerate_c_degradations(chan, args.n)
    cap_q = capacity(chan)
    rows = [
        {"cuts": list(plan.cuts), "capacity": cap_w, "clr": capacity_loss_rate(cap_q, cap_w)}
        for plan, cap_w in zip(plans, experiments.realized_capacities(plans))
    ]
    rows.sort(key=lambda r: (-r["capacity"], r["cuts"]))
    if args.oracle:
        expect = {
            tuple(c)
            for c in itertools.combinations(range(2, m + 1), args.n - 1)
            if is_c_degradation(PPlusPlan(chan, tuple(c)))
        }
        got = {tuple(r["cuts"]) for r in rows}
        if expect != got:
            raise OracleMismatch(f"enumeration mismatch: {sorted(expect ^ got)}")
    report = {"n": args.n, "count": len(rows), "plans": rows}
    csv_rows = [
        {"cuts": " ".join(map(str, r["cuts"])), "capacity": r["capacity"], "clr": r["clr"]}
        for r in rows
    ]
    return [_report(args, report, csv_rows, ["cuts", "capacity", "clr"])]


# ----------------------------------------------------------------------
# check


def cmd_check(args) -> list:
    w = load_channel(args.degraded)
    q = load_channel(args.source)
    witness = find_degradation_witness(w, q)
    verdict = witness is not None
    if args.oracle and risk_dominates(w, q) != verdict:
        raise OracleMismatch("witness and Bayes-risk verdicts disagree")
    report = {
        "degradation": verdict,
        "capacity_degraded": capacity(w),
        "capacity_source": capacity(q),
        "error_probability_degraded": error_probability(w),
        "error_probability_source": error_probability(q),
    }
    outputs = []
    if args.emit_witness and witness is not None:
        outputs.append((args.emit_witness, _json_text(witness.to_json_dict())))
    return outputs + [_report(args, report)]


# ----------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> list:
    for flag in ("samples", "jobs"):
        if getattr(args, flag) < 1:
            raise ValidationError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    grid = args.table in ("pplus-stats", "opt-clr")
    for flag in ("m", "n") if grid else ("n",):
        if not getattr(args, flag):
            raise ValidationError(f"--{flag} needs at least one value")
    for m, n in itertools.product(args.m if grid else [], args.n):
        if not (2 <= n < m):
            raise ValidationError(f"need 2 <= n < m, got n={n}, m={m}")
    for n in [] if grid else args.n:
        _check_quantizer(n, args.depth if args.table == "branch-clr" else 1)
    if args.table == "pplus-stats":
        rows = experiments.pplus_stats_rows(args.seed, args.m, args.n, args.samples, args.jobs)
    elif args.table == "opt-clr":
        rows = experiments.opt_clr_rows(args.seed, args.m, args.n, args.samples, args.jobs, args.compare_full)
    elif args.table == "arikan-clr":
        rows = experiments.arikan_clr_rows(args.seed, args.n, args.samples, args.jobs, args.c_stats)
    else:
        rows = experiments.branch_clr_rows(args.seed, args.n, args.samples, args.jobs, args.depth)
    return [_report(args, {"table": args.table, "rows": rows}, csv_rows=rows)]


# ----------------------------------------------------------------------
# polar


def _check_quantizer(n: int, depth: int) -> None:
    if n < 2:
        raise ValidationError(f"--n must be >= 2, got {n}")
    if depth < 1:
        raise ValidationError(f"--depth must be >= 1, got {depth}")


def cmd_polar(args) -> list:
    _check_quantizer(args.n, args.depth)
    chan = load_channel(args.channel)
    run = construct(chan, args.depth, args.n)
    if args.oracle:
        for alpha, rec in run.records.items():
            if len(alpha) >= args.depth:
                continue
            q = rec.quantized
            total = capacity(arikan_minus(q)) + capacity(arikan_plus(q))
            if abs(total - 2.0 * capacity(q)) > ORACLE_TOL:
                raise OracleMismatch(f"capacity conservation fails at branch '{alpha}'")
    rows = [rec.to_json_dict() for alpha, rec in run.records.items() if alpha]
    report = {"depth": args.depth, "n": args.n, "branches": rows}
    return [_report(args, report, csv_rows=rows)]


# ----------------------------------------------------------------------
# parser


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidmc",
        description="Symmetric binary-input DMCs as BSC mixtures: analysis, "
        "optimal alphabet reduction, degradation-order tests, polar experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (BIDMC_SEED overrides)")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="capacity, error probability and LR-profile of a channel file")
    p.add_argument("channel")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("degrade", help="reduce a channel to n particles")
    p.add_argument("channel")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", choices=["opt", "tv", "tv-star", "mean"], default="opt")
    p.add_argument("--pruning", choices=["on", "off"], default="on")
    p.add_argument("--emit-witness", default=None, help="write the plan's equality witness JSON here")
    p.add_argument("--output-channel", default=None, help="write the degraded channel here")
    common(p)
    p.set_defaults(fn=cmd_degrade)

    p = sub.add_parser("enumerate", help="all C-degradation cut plans, best capacity first")
    p.add_argument("channel")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", help="test whether the first channel is a degradation of the second")
    p.add_argument("degraded")
    p.add_argument("source")
    p.add_argument("--emit-witness", default=None)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("experiment", help="seeded ensemble tables")
    p.add_argument("--table", choices=["pplus-stats", "opt-clr", "arikan-clr", "branch-clr"], required=True)
    p.add_argument("--m", type=_int_list, default=[8])
    p.add_argument("--n", type=_int_list, default=[4])
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--c-stats", action="store_true", help="include C-degradation count/CLR columns")
    p.add_argument("--compare-full", action="store_true", help="also report the unpruned DP's evaluations")
    common(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("polar", help="degrade-then-transform construction over all branches")
    p.add_argument("channel")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_polar)

    # Only these commands have a CSV report.
    for p in map(sub.choices.get, ("enumerate", "experiment", "polar")):
        p.add_argument("--format", choices=["json", "csv"], default="json")
    # Every command but experiment has an independent oracle to check against.
    for p in map(sub.choices.get, ("analyze", "degrade", "enumerate", "check", "polar")):
        p.add_argument("--oracle", action="store_true", help="cross-check against the independent oracle")
    return parser


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that cannot be written or
    that resolves to an input file or to another output's file."""
    named = (getattr(args, a, None) for a in ("channel", "degraded", "source"))
    taken = {os.path.realpath(p) for p in named if p}
    for path in filter(None, (getattr(args, a, None) for a in ("output", "emit_witness", "output_channel"))):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValidationError(f"output path {path!r} is a directory")
        if not os.path.isdir(folder):
            raise ValidationError(f"output path {path!r} is in a missing directory")
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise ValidationError(f"output path {path!r} is not writable")
        if os.path.realpath(path) in taken:
            raise ValidationError(f"output path {path!r} is also an input or another output")
        taken.add(os.path.realpath(path))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.seed = _seed(args)
        _check_outputs(args)
        for path, text in args.fn(args):
            if path:
                with open(path, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return EXIT_OK
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ChannelFormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, ValueError) as exc:
        print(f"internal error in {args.command}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
