"""Seeded ensemble tables, the experiments behind ``bidmc experiment``.

A table's record function ``f(seed, indices, *params)`` returns the values
of instances ``instance_rng(seed, i)``, i in indices, as arrays in index
order.  Its calls are stacked, each equal to its single calls bit for bit,
so a record does not depend on which instances share its calls, and a
table's rows, which aggregate instances 0..samples-1 of each cell from
min(jobs, samples) contiguous batches, do not depend on ``jobs``.  The
batches run on at most ``os.cpu_count()`` worker processes.
"""

from __future__ import annotations

import math
import os
from multiprocessing import Pool
from typing import Sequence

import numpy as np

from .channel import _capacities, _channels, _stack, capacity_loss_rate
from .ensembles import instance_rng, random_channel
from .polar import _transforms, construct
from .refine import PPlusPlan, _realize, refine_cuts
from .search import (
    _BATCH_ENTRIES,
    _unpruned_evaluations,
    c_optimal_degradations,
    dp_tables,
    enumerate_c_degradations,
    tv_greedy_plan,
)


def realized_capacities(plans: Sequence[PPlusPlan]) -> list[float]:
    """``capacity(realize_pplus(plan))`` of each plan, all with the same
    number of cuts, in stacks of at most _BATCH_ENTRIES groups times
    particles (a plus transform has about 3e4 C-degradations at n = 10, and
    a stack's group sums pad to its longest)."""
    step = max(1, _BATCH_ENTRIES // max(((len(p.cuts) + 1) * p.source.size for p in plans), default=1))
    chunks = [plans[k : k + step] for k in range(0, len(plans), step)]
    cuts = (np.array([p.cuts for p in chunk], dtype=np.int64) for chunk in chunks)
    stacks = (_realize(_stack([p.source for p in chunk]), c) for chunk, c in zip(chunks, cuts))
    return [c for stack in stacks for c in _capacities(stack)]


def _plan_clrs(caps_q: list[float], plan_lists: list[list[PPlusPlan]]) -> list[list[float]]:
    """Per source, of capacity caps_q[k], the CLR of each of its plans."""
    caps = iter(realized_capacities([p for plans in plan_lists for p in plans]))
    return [[capacity_loss_rate(c, next(caps)) for _ in ps] for c, ps in zip(caps_q, plan_lists)]


def pplus_stats(seed: int, indices: Sequence[int], m: int, n: int) -> dict:
    """C-degradation count and best CLR (the optimal degradation's, which is
    among them) of random m-particle channels reduced to n."""
    qs = [random_channel(instance_rng(seed, i), m) for i in indices]
    plan_lists = [enumerate_c_degradations(q, n) for q in qs]
    clrs = _plan_clrs(_capacities(_stack(qs)), plan_lists)
    counts = np.array([len(plans) for plans in plan_lists])
    return {"c_count": counts, "c_clr": np.array([min(c, default=0.0) for c in clrs])}


def _opt_clr_counted(seed: int, indices: Sequence[int], m: int, n: int) -> dict:
    """Optimal-degradation CLR of random m-particle channels reduced to n,
    with the pruned DP's counters: the ``opt-clr`` table's record.  The
    CLRs come from the plans of the one pruned ``dp_tables`` run."""
    qs = [random_channel(instance_rng(seed, i), m) for i in indices]
    found = dp_tables(qs, n, True)
    out = {"clr": _opt_clrs(qs, [plan for plan, _ in found])}
    out["evaluations"] = np.array([table.evaluations for _, table in found])
    out["pruned_states"] = np.array([table.pruned_states for _, table in found])
    return out


def _opt_clrs(qs: list, plans: list[PPlusPlan]) -> np.ndarray:
    """The CLR of each channel's one plan."""
    return np.array([c for c, in _plan_clrs(_capacities(_stack(qs)), [[p] for p in plans])])


def arikan_clr(seed: int, indices: Sequence[int], n: int, c_stats: bool) -> dict:
    """Reductions to n of plus transforms of random n-particle channels (which
    attain the n^2 + 1 bound): each transform's ``size`` and ``capacity``,
    the capacities of its ``opt``, ``tv`` and ``tv_star`` reductions (its
    own at size <= n) and, with ``c_stats``, its C-degradation count and
    their mean CLR."""
    ws = [random_channel(instance_rng(seed, i), n) for i in indices]
    stack = _transforms(_stack(ws), "1" * len(ws))
    qs, caps_q = _channels(stack), _capacities(stack)
    big = [k for k, q in enumerate(qs) if q.size > n]
    tv = [tv_greedy_plan(qs[k], n) for k in big]
    opt = [plan for plan, _ in c_optimal_degradations([qs[k] for k in big], n)]
    caps = iter(realized_capacities(opt + tv + [refine_cuts(plan) for plan in tv]))
    out = {"size": stack.sizes, "capacity": np.array(caps_q)}
    for key in ("opt", "tv", "tv_star"):
        out[key] = np.array(caps_q)
        for k in big:
            out[key][k] = next(caps)
    if c_stats:
        plan_lists = [enumerate_c_degradations(q, n) if q.size > n else [] for q in qs]
        clrs = _plan_clrs(caps_q, plan_lists)
        out["c_count"] = np.array([float(len(plans)) for plans in plan_lists])
        out["c_clr"] = np.array([float(np.mean(c)) if c else 0.0 for c in clrs])
    return out


def branch_clr(seed: int, indices: Sequence[int], n: int, depth: int) -> dict:
    """Per branch, of length 1..depth in ``construct``'s (length, bits)
    order, the CLR of ``construct`` on random n-particle channels with
    quantizer size n; ``indices`` is not empty."""
    runs = [construct(random_channel(instance_rng(seed, i), n), depth, n) for i in indices]
    return {a: np.array([run.records[a].clr for run in runs]) for a in runs[0].records if a}


def _records(fn, seed: int, samples: int, jobs: int, cells: list[tuple]):
    """Each cell with the records ``fn(seed, indices, *cell)`` of its
    instances 0..samples-1, in min(jobs, samples) batches of at least one
    instance each."""
    k = min(jobs, samples)
    edges = [samples * b // k for b in range(k + 1)]
    tasks = [(seed, range(lo, hi), *cell) for cell in cells for lo, hi in zip(edges, edges[1:])]
    if k > 1:
        # The rows depend on the k batches, not on how many processes run them.
        with Pool(min(k, os.cpu_count() or 1)) as pool:
            parts = pool.starmap(fn, tasks)
    else:
        parts = [fn(*task) for task in tasks]
    batches = [parts[c : c + k] for c in range(0, len(parts), k)]
    return zip(cells, ({key: np.concatenate([p[key] for p in b]) for key in b[0]} for b in batches))


def _mean_ci(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), half


def pplus_stats_rows(seed: int, ms: list[int], ns: list[int], samples: int, jobs: int) -> list:
    """The ``pplus-stats`` table: a row per (m, n), 2 <= n < m."""
    rows = []
    for (m, n), rec in _records(pplus_stats, seed, samples, jobs, [(m, n) for m in ms for n in ns]):
        row = {"m": m, "n": n, "samples": samples, "pplus_count": math.comb(m - 1, n - 1)}
        for key in ("c_count", "c_clr"):
            row["mean_" + key], row["ci95_" + key] = _mean_ci(rec[key])
        rows.append(row)
    return rows


def opt_clr_rows(
    seed: int, ms: list[int], ns: list[int], samples: int, jobs: int, compare_full: bool
) -> list:
    """The ``opt-clr`` table: a row per (m, n), 2 <= n < m; with
    ``compare_full``, also the unpruned DP's evaluations, a closed form of m
    and n (every instance has m particles)."""
    rows = []
    for (m, n), rec in _records(_opt_clr_counted, seed, samples, jobs, [(m, n) for m in ms for n in ns]):
        row = {"m": m, "n": n, "samples": samples}
        row["mean_clr"], row["ci95_clr"] = _mean_ci(rec["clr"])
        for key in list(rec)[1:]:  # the DP counters
            row["mean_" + key] = float(np.mean(rec[key]))
        if compare_full:
            row["mean_evaluations_full"] = float(_unpruned_evaluations(m, n))
        rows.append(row)
    return rows


def arikan_clr_rows(seed: int, ns: list[int], samples: int, jobs: int, c_stats: bool) -> list:
    """The ``arikan-clr`` table: a row per n >= 2."""
    rows = []
    for (n, _), rec in _records(arikan_clr, seed, samples, jobs, [(n, c_stats) for n in ns]):
        opt, tv, tvs = (
            _mean_ci([capacity_loss_rate(*c) for c in zip(rec["capacity"].tolist(), rec[key].tolist())])
            for key in ("opt", "tv", "tv_star")
        )
        row = {"n": n, "m_bound": n * n + 1, "samples": samples, "opt_clr": opt[0], "ci95_opt_clr": opt[1]}
        row["tv_clr"], row["tv_star_clr"] = tv[0], tvs[0]
        for key in ("c_count", "c_clr") if c_stats else ():
            row["mean_" + key] = float(np.mean(rec[key]))
        rows.append(row)
    return rows


def branch_clr_rows(seed: int, ns: list[int], samples: int, jobs: int, depth: int) -> list:
    """The ``branch-clr`` table: a row per (n, branch), n >= 2, depth >= 1."""
    rows = []
    for (n, _), rec in _records(branch_clr, seed, samples, jobs, [(n, depth) for n in ns]):
        for alpha, clrs in rec.items():
            row = {"n": n, "alpha": alpha, "samples": samples}
            row["mean_clr"], row["ci95_clr"] = _mean_ci(clrs)
            rows.append(row)
    return rows
