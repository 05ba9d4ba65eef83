"""Command-line front end.

Subcommands: analyze, degrade, enumerate, experiment, polar, check.
Exit codes: 0 ok, 1 usage, 2 validation, 3 oracle mismatch.  The BIDMC_SEED
environment variable overrides --seed.  Every output artifact records the
seed it was produced with; a fixed configuration reproduces bit-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import math
import os
import sys
from multiprocessing import Pool

import numpy as np

from .blackwell import find_degradation_witness, risk_dominates
from .channel import (
    Channel,
    capacity,
    capacity_loss_rate,
    error_probability,
    lr_functional,
    lr_profile,
)
from .ensembles import instance_rng, random_channel
from .io import ChannelFormatError, channel_to_csv, channel_to_json_dict, load_channel
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
    c_optimal_degradation,
    enumerate_c_degradations,
    tv_greedy_plan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ORACLE = 3

ORACLE_TOL = 1e-9


class ValidationError(Exception):
    pass


class OracleMismatch(Exception):
    pass


def _emit(data, fmt: str, output: str | None, csv_rows=None) -> None:
    if fmt == "csv" and csv_rows is not None:
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_channel(chan: Channel, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write(channel_to_csv(chan))
    else:
        with open(path, "w") as fh:
            json.dump(channel_to_json_dict(chan), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _seed(args) -> int:
    env = os.environ.get("BIDMC_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _identity_plan(q: Channel) -> PPlusPlan:
    return PPlusPlan(q, tuple(range(2, q.size + 1)))


def _optimal_plan(q: Channel, n: int, pruning: bool):
    if n >= q.size:
        return _identity_plan(q), None
    return c_optimal_degradation(q, n, pruning=pruning)


# ----------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
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
        "seed": _seed(args),
    }
    _emit(report, args.format, args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# degrade


def cmd_degrade(args) -> int:
    chan = load_channel(args.channel)
    m = chan.size
    n = args.n
    if args.method != "mean" and n is None:
        raise ValidationError("--n is required for this method")
    if n is not None and not (2 <= n <= m):
        raise ValidationError(f"--n must be in [2, {m}], got {n}")
    evaluations = None
    pruned_states = None
    if args.method == "mean":
        from .blackwell import mean_degradation

        plan = PPlusPlan(chan, ())
        degraded = mean_degradation(chan)
    elif args.method == "opt":
        plan, table = _optimal_plan(chan, n, pruning=args.pruning == "on")
        degraded = realize_pplus(plan)
        if table is not None:
            evaluations = table.evaluations
            pruned_states = table.pruned_states
    elif args.method == "tv":
        plan = tv_greedy_plan(chan, n)
        degraded = realize_pplus(plan)
    elif args.method == "tv-star":
        plan = refine_cuts(tv_greedy_plan(chan, n))
        degraded = realize_pplus(plan)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown method {args.method}")

    cap_w = capacity(degraded)
    clr = capacity_loss_rate(capacity(chan), cap_w)
    if args.oracle and args.method != "mean" and n is not None and n < m:
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
        "evaluations": evaluations,
        "pruned_states": pruned_states,
        "channel": channel_to_json_dict(degraded),
        "seed": _seed(args),
    }
    if args.emit_witness:
        with open(args.emit_witness, "w") as fh:
            json.dump(plan_witness(plan).to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.output_channel:
        _write_channel(degraded, args.output_channel)
    _emit(report, args.format, args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    chan = load_channel(args.channel)
    m = chan.size
    if not (2 <= args.n < m):
        raise ValidationError(f"--n must be in [2, {m - 1}], got {args.n}")
    plans = enumerate_c_degradations(chan, args.n)
    cap_q = capacity(chan)
    rows = []
    for plan in plans:
        w = realize_pplus(plan)
        cap_w = capacity(w)
        rows.append(
            {
                "cuts": list(plan.cuts),
                "capacity": cap_w,
                "clr": capacity_loss_rate(cap_q, cap_w),
            }
        )
    rows.sort(key=lambda r: (-r["capacity"], r["cuts"]))
    if args.oracle:
        import itertools

        expect = {
            tuple(c)
            for c in itertools.combinations(range(2, m + 1), args.n - 1)
            if is_c_degradation(PPlusPlan(chan, tuple(c)))
        }
        got = {tuple(r["cuts"]) for r in rows}
        if expect != got:
            raise OracleMismatch(f"enumeration mismatch: {sorted(expect ^ got)}")
    report = {"n": args.n, "count": len(rows), "plans": rows, "seed": _seed(args)}
    csv_rows = [
        {"cuts": " ".join(map(str, r["cuts"])), "capacity": r["capacity"], "clr": r["clr"]}
        for r in rows
    ]
    _emit(report, args.format, args.output, csv_rows=csv_rows)
    return EXIT_OK


# ----------------------------------------------------------------------
# check


def cmd_check(args) -> int:
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
        "seed": _seed(args),
    }
    if args.emit_witness and witness is not None:
        with open(args.emit_witness, "w") as fh:
            json.dump(witness.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    _emit(report, args.format, args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# experiment workers (top level for multiprocessing)


def _pplus_instance(task) -> dict:
    seed, idx, m, n = task
    rng = instance_rng(seed, idx)
    q = random_channel(rng, m)
    plans = enumerate_c_degradations(q, n)
    cap_q = capacity(q)
    clrs = [capacity_loss_rate(cap_q, capacity(realize_pplus(p))) for p in plans]
    # The candidate set always contains the capacity-optimal plan, so its
    # best CLR is the optimal degradation's CLR.
    return {
        "c_count": len(plans),
        "c_clr": float(np.min(clrs)) if clrs else 0.0,
    }


def _optclr_instance(task) -> dict:
    seed, idx, m, n, compare_full = task
    rng = instance_rng(seed, idx)
    q = random_channel(rng, m)
    plan, table = c_optimal_degradation(q, n, pruning=True)
    out = {
        "clr": capacity_loss_rate(capacity(q), capacity(realize_pplus(plan))),
        "evaluations": table.evaluations,
        "pruned_states": table.pruned_states,
    }
    if compare_full:
        _, full = c_optimal_degradation(q, n, pruning=False)
        out["evaluations_full"] = full.evaluations
    return out


def _arikan_instance(task) -> dict:
    # The ensemble: plus transforms of random n-particle channels, the
    # synthetic channels attaining the n^2 + 1 alphabet bound.
    seed, idx, n, c_stats = task
    rng = instance_rng(seed, idx)
    w = random_channel(rng, n)
    q = arikan_plus(w)
    cap_q = capacity(q)
    if q.size <= n:
        out = {"opt_clr": 0.0, "tv_clr": 0.0, "tv_star_clr": 0.0}
        if c_stats:
            out["c_count"] = 0.0
            out["c_clr"] = 0.0
        return out
    plan_opt, _ = c_optimal_degradation(q, n)
    plan_tv = tv_greedy_plan(q, n)
    plan_tvs = refine_cuts(plan_tv)
    out = {
        "opt_clr": capacity_loss_rate(cap_q, capacity(realize_pplus(plan_opt))),
        "tv_clr": capacity_loss_rate(cap_q, capacity(realize_pplus(plan_tv))),
        "tv_star_clr": capacity_loss_rate(cap_q, capacity(realize_pplus(plan_tvs))),
    }
    if c_stats:
        plans = enumerate_c_degradations(q, n)
        clrs = [capacity_loss_rate(cap_q, capacity(realize_pplus(p))) for p in plans]
        out["c_count"] = float(len(plans))
        out["c_clr"] = float(np.mean(clrs)) if clrs else 0.0
    return out


def _branch_instance(task) -> dict:
    seed, idx, n, depth = task
    rng = instance_rng(seed, idx)
    w = random_channel(rng, n)
    run = construct(w, depth, n)
    return {alpha: rec.clr for alpha, rec in run.records.items() if alpha}


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with Pool(jobs) as pool:
        return pool.map(worker, tasks)


def _mean_ci(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), half


def cmd_experiment(args) -> int:
    seed = _seed(args)
    rows: list[dict] = []
    if args.table == "pplus-stats":
        for m in args.m:
            for n in args.n:
                if not (2 <= n < m):
                    raise ValidationError(f"need 2 <= n < m, got n={n}, m={m}")
                tasks = [(seed, i, m, n) for i in range(args.samples)]
                res = _run_tasks(_pplus_instance, tasks, args.jobs)
                count_mean, count_ci = _mean_ci([r["c_count"] for r in res])
                clr_mean, clr_ci = _mean_ci([r["c_clr"] for r in res])
                rows.append(
                    {
                        "m": m,
                        "n": n,
                        "samples": args.samples,
                        "pplus_count": math.comb(m - 1, n - 1),
                        "mean_c_count": count_mean,
                        "ci95_c_count": count_ci,
                        "mean_c_clr": clr_mean,
                        "ci95_c_clr": clr_ci,
                    }
                )
    elif args.table == "opt-clr":
        for m in args.m:
            for n in args.n:
                if not (2 <= n < m):
                    raise ValidationError(f"need 2 <= n < m, got n={n}, m={m}")
                tasks = [(seed, i, m, n, args.compare_full) for i in range(args.samples)]
                res = _run_tasks(_optclr_instance, tasks, args.jobs)
                clr_mean, clr_ci = _mean_ci([r["clr"] for r in res])
                row = {
                    "m": m,
                    "n": n,
                    "samples": args.samples,
                    "mean_clr": clr_mean,
                    "ci95_clr": clr_ci,
                    "mean_evaluations": float(np.mean([r["evaluations"] for r in res])),
                    "mean_pruned_states": float(np.mean([r["pruned_states"] for r in res])),
                }
                if args.compare_full:
                    row["mean_evaluations_full"] = float(
                        np.mean([r["evaluations_full"] for r in res])
                    )
                rows.append(row)
    elif args.table == "arikan-clr":
        for n in args.n:
            tasks = [(seed, i, n, args.c_stats) for i in range(args.samples)]
            res = _run_tasks(_arikan_instance, tasks, args.jobs)
            opt_mean, opt_ci = _mean_ci([r["opt_clr"] for r in res])
            tv_mean, _ = _mean_ci([r["tv_clr"] for r in res])
            tvs_mean, _ = _mean_ci([r["tv_star_clr"] for r in res])
            row = {
                "n": n,
                "m_bound": n * n + 1,
                "samples": args.samples,
                "opt_clr": opt_mean,
                "ci95_opt_clr": opt_ci,
                "tv_clr": tv_mean,
                "tv_star_clr": tvs_mean,
            }
            if args.c_stats:
                row["mean_c_count"] = float(np.mean([r["c_count"] for r in res]))
                row["mean_c_clr"] = float(np.mean([r["c_clr"] for r in res]))
            rows.append(row)
    elif args.table == "branch-clr":
        for n in args.n:
            tasks = [(seed, i, n, args.depth) for i in range(args.samples)]
            res = _run_tasks(_branch_instance, tasks, args.jobs)
            alphas = sorted(res[0].keys(), key=lambda a: (len(a), a)) if res else []
            for alpha in alphas:
                clr_mean, clr_ci = _mean_ci([r[alpha] for r in res])
                rows.append(
                    {
                        "n": n,
                        "alpha": alpha,
                        "samples": args.samples,
                        "mean_clr": clr_mean,
                        "ci95_clr": clr_ci,
                    }
                )
    report = {"table": args.table, "seed": seed, "rows": rows}
    _emit(report, args.format, args.output, csv_rows=rows or [{}])
    return EXIT_OK


# ----------------------------------------------------------------------
# polar


def cmd_polar(args) -> int:
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
    rows = [run.records[a].to_json_dict() for a in sorted(run.records, key=lambda a: (len(a), a)) if a]
    report = {"depth": args.depth, "n": args.n, "branches": rows, "seed": _seed(args)}
    _emit(report, args.format, args.output, csv_rows=rows)
    return EXIT_OK


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

    def common(p, formats=("json", "csv")):
        p.add_argument("--seed", type=int, default=0, help="master seed (BIDMC_SEED overrides)")
        p.add_argument("--format", choices=list(formats), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--oracle", action="store_true", help="cross-check against the independent oracle")

    p = sub.add_parser("analyze", help="capacity, error probability and LR-profile of a channel file")
    p.add_argument("channel")
    common(p, formats=("json",))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("degrade", help="reduce a channel to n particles")
    p.add_argument("channel")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", choices=["opt", "tv", "tv-star", "mean"], default="opt")
    p.add_argument("--pruning", choices=["on", "off"], default="on")
    p.add_argument("--emit-witness", default=None, help="write the plan's equality witness JSON here")
    p.add_argument("--output-channel", default=None, help="write the degraded channel here")
    common(p, formats=("json",))
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
    common(p, formats=("json",))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("experiment", help="seeded ensemble tables")
    p.add_argument("--table", choices=["pplus-stats", "opt-clr", "arikan-clr", "branch-clr"], required=True)
    p.add_argument("--m", type=_int_list, default=[8])
    p.add_argument("--n", type=_int_list, default=[4])
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--c-stats", action="store_true", help="include C-degradation count/CLR columns")
    p.add_argument("--compare-full", action="store_true", help="also run the unpruned DP for counter comparison")
    common(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("polar", help="degrade-then-transform construction over all branches")
    p.add_argument("channel")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_polar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ChannelFormatError, ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
