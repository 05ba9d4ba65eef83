"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Each op is one seeded instance built from ``instance_rng(seed, i)``.  Ops
call the library through the ``bidmc`` package namespace at call time, so
the tracer's wrappers see them.  ``summarise`` turns the op's result into a
small record right after the op (outside its timing); ``check`` compares a
record against the independent oracles after the timed phase and returns
the failed conditions.  Records carry ``digest``, a bit-exact text of every
cut vector, P* plan and verdict.

Capacity-loss rates (CLR) are per-layer metrics, read off the records: each
is exact for a seed, but its mean moves with the instances a seed draws by
more than a run-to-run bound could allow, so it is no end-to-end metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bidmc
from bidmc.search import BRUTE_FORCE_GUARD

TOL = 1e-9
ORDER_TOL = 1e-12


def clr(cap_src: float, cap_deg: float) -> float:
    return 0.0 if cap_src <= 0.0 else max(0.0, (cap_src - cap_deg) / cap_src)


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    # Ops per second of the timed phase when the benchmark was defined
    # (2-core shared Xeon VM, Python 3.11, numpy 2.4).  The op list has
    # seconds * rate entries, so the timed phase lasts about --seconds at
    # that commit while every commit runs exactly the same instances.
    rate: float
    make: Callable[[int, int, bool], Any]
    op: Callable[[Any], Any]
    summarise: Callable[[Any, Any], dict]
    check: Callable[[Any, dict], list]
    # Per-layer metrics read off the records of the ops that completed.
    record_metrics: Callable[[list], dict]


def _mean(records, key):
    return float(np.mean([r[key] for r in records])) if records else 0.0


# ----------------------------------------------------------------------
# opt-uniform: capacity-optimal reduction of uniform random channels


def _opt_make(seed, i, smoke):
    q = bidmc.random_channel(bidmc.instance_rng(seed, i), 16 if smoke else 128)
    return q, 4 + i % 7


def _opt_op(inp):
    q, n = inp
    plan, _ = bidmc.c_optimal_degradation(q, n)
    cap = bidmc.capacity(bidmc.realize_pplus(plan))
    return plan, cap, clr(bidmc.capacity(q), cap)


def _opt_summarise(inp, result):
    plan, cap, loss = result
    return {"cuts": plan.cuts, "cap": cap, "clr": loss, "digest": f"opt {plan.cuts}"}


def _opt_metrics(records):
    return {"search.c_optimal_degradation.clr_mean": _mean(records, "clr")}


def _opt_check(inp, rec):
    q, n = inp
    bad = []
    plan_u, _ = bidmc.c_optimal_degradation(q, n, pruning=False)
    cap_u = bidmc.capacity(bidmc.realize_pplus(plan_u))
    if abs(rec["cap"] - cap_u) > TOL:
        bad.append(f"capacity {rec['cap']!r} != unpruned DP {cap_u!r}")
    if n == 4 and math.comb(q.size - 1, n - 1) <= BRUTE_FORCE_GUARD:
        _, cap_b = bidmc.brute_force_c_optimal(q, n)
        if abs(rec["cap"] - cap_b) > TOL:
            bad.append(f"capacity {rec['cap']!r} != brute force {cap_b!r}")
    return bad


# ----------------------------------------------------------------------
# arikan-baselines: opt, tv and tv-star on Arikan plus transforms


def _ari_make(seed, i, smoke):
    n = 4 + i % (2 if smoke else 7)
    return bidmc.arikan_plus(bidmc.random_channel(bidmc.instance_rng(seed, i), n)), n


def _ari_op(inp):
    q, n = inp
    plan_opt, _ = bidmc.c_optimal_degradation(q, n)
    plan_tv = bidmc.tv_greedy_plan(q, n)
    plan_tvs = bidmc.refine_cuts(plan_tv)
    cap_q = bidmc.capacity(q)
    caps = [bidmc.capacity(bidmc.realize_pplus(p)) for p in (plan_opt, plan_tv, plan_tvs)]
    return (plan_opt, plan_tv, plan_tvs), caps, [clr(cap_q, c) for c in caps]


def _ari_summarise(inp, result):
    plans, caps, clrs = result
    cuts = [p.cuts for p in plans]
    return {
        "cuts": cuts,
        "caps": caps,
        "clr_opt": clrs[0],
        "clr_tv": clrs[1],
        "clr_tvs": clrs[2],
        "digest": "opt {} tv {} tv-star {}".format(*cuts),
    }


def _ari_check(inp, rec):
    q, n = inp
    bad = []
    cap_opt, cap_tv, cap_tvs = rec["caps"]
    if not (cap_opt >= cap_tvs - ORDER_TOL and cap_tvs >= cap_tv - ORDER_TOL):
        bad.append(f"capacities break opt >= tv-star >= tv: {rec['caps']}")
    if not bidmc.is_c_degradation(bidmc.PPlusPlan(q, rec["cuts"][2])):
        bad.append(f"tv-star plan {rec['cuts'][2]} is not a C-degradation")
    plan_u, _ = bidmc.c_optimal_degradation(q, n, pruning=False)
    cap_u = bidmc.capacity(bidmc.realize_pplus(plan_u))
    if abs(cap_opt - cap_u) > TOL:
        bad.append(f"opt capacity {cap_opt!r} != unpruned DP {cap_u!r}")
    return bad


def _ari_metrics(records):
    return {
        "search.c_optimal_degradation.clr_mean": _mean(records, "clr_opt"),
        "search.tv_greedy_plan.clr_mean": _mean(records, "clr_tv"),
        "refine.refine_cuts.clr_mean": _mean(records, "clr_tvs"),
    }


# ----------------------------------------------------------------------
# polar-chain: the degrade-then-transform construction


POLAR_N = 4


def _polar_make(seed, i, smoke):
    return bidmc.random_channel(bidmc.instance_rng(seed, i), POLAR_N), 2 if smoke else 5


def _polar_op(inp):
    base, depth = inp
    return bidmc.construct(base, depth, POLAR_N)


def _polar_summarise(inp, run):
    alphas = sorted(run.records, key=lambda a: (len(a), a))
    quantized = {a: run.records[a].quantized for a in alphas}
    text = " ".join(
        f"{a or '-'}:{_hex(q.sigmas)}/{_hex(q.weights)}" for a, q in quantized.items()
    )
    return {
        "quantized": quantized,
        "clr": float(np.mean([run.records[a].clr for a in alphas if a])),
        "digest": text,
    }


def _polar_metrics(records):
    # Over completed ops only, so a fix that lets failing instances
    # complete moves it.
    return {"polar.construct.clr_mean": _mean(records, "clr")}


def _polar_check(inp, rec):
    _, depth = inp
    bad = []
    quantized = rec["quantized"]
    for alpha, q in quantized.items():
        if q.size > POLAR_N:
            bad.append(f"branch '{alpha}' quantized to {q.size} > {POLAR_N} particles")
        if len(alpha) < depth:
            total = bidmc.capacity(bidmc.arikan_minus(q)) + bidmc.capacity(bidmc.arikan_plus(q))
            if abs(total - 2.0 * bidmc.capacity(q)) > TOL:
                bad.append(f"capacity conservation fails at branch '{alpha}'")
        if not alpha:
            continue
        # The quantization itself: an optimal degradation of the transform
        # of the parent's quantized channel.
        parent = quantized[alpha[:-1]]
        transform = bidmc.arikan_plus(parent) if alpha[-1] == "1" else bidmc.arikan_minus(parent)
        if transform.size <= POLAR_N:
            best = bidmc.capacity(transform)
        else:
            plan_u, _ = bidmc.c_optimal_degradation(transform, POLAR_N, pruning=False)
            best = bidmc.capacity(bidmc.realize_pplus(plan_u))
        if abs(bidmc.capacity(q) - best) > TOL:
            bad.append(f"branch '{alpha}' capacity {bidmc.capacity(q)!r} != unpruned DP {best!r}")
        if not bidmc.risk_dominates(q, transform):
            bad.append(f"branch '{alpha}' is not a degradation of its transform")
    return bad


# ----------------------------------------------------------------------
# witness-check: the degradation order, its witnesses and P* plans


# The kinds of acceptance criterion 07 (random, degraded, slightly degraded
# and slightly upgraded pairs), cycled.  Degraded pairs run three LPs and
# the others one, so op times are bimodal.  The two degraded kinds, plus
# the random pairs that happen to be degradations, make about a third of
# the ops, so the median and p90 sit inside the two modes instead of on the
# gap between them.
WITNESS_KINDS = (
    "random", "upgraded", "slightly-degraded", "upgraded",
    "random", "degraded", "upgraded", "upgraded",
)


def _wit_make(seed, i, smoke):
    m, n = (6, 3) if smoke else (32, 8)
    rng = bidmc.instance_rng(seed, i)
    q = bidmc.random_channel(rng, m)
    kind = WITNESS_KINDS[i % len(WITNESS_KINDS)]
    if kind == "random":
        return bidmc.random_channel(rng, n), q
    k = np.zeros((m, n))
    for r, p in enumerate(q.particles):
        k[r] = rng.dirichlet(np.ones(n)) * p.weight
    cols = k.sum(axis=0)
    means = (q.sigmas @ k) / cols
    if kind == "upgraded":
        eps = np.maximum(means - 0.01, 0.0)
    else:
        t = rng.uniform(0.0, 1.0 if kind == "degraded" else 0.02, size=n)
        eps = means + t * (0.5 - means)
    return bidmc.canonicalize(list(zip(eps.tolist(), cols.tolist()))), q


def _wit_op(inp):
    w, q = inp
    witness = bidmc.find_degradation_witness(w, q)
    risk = bidmc.risk_dominates(w, q)
    if witness is None:
        return witness, risk, None, None, None
    plan = bidmc.to_pstar_plan(w, q)
    w1 = bidmc.realize_pstar(plan)
    p_ok, _ = bidmc.is_p_degradation(w1, q)
    return witness, risk, plan, w1, p_ok


def _wit_summarise(inp, result):
    witness, risk, plan, w1, p_ok = result
    _, q = inp
    rec = {"witness": witness, "risk": risk, "w1": w1, "p_ok": p_ok, "clr": None}
    text = f"verdict {witness is not None} risk {risk}"
    if plan is not None:
        rec["clr"] = clr(bidmc.capacity(q), bidmc.capacity(w1))
        text += f" pstar {plan.indices} {_hex(plan.splits)} p {p_ok}"
    rec["digest"] = text
    return rec


def _wit_check(inp, rec):
    w, q = inp
    bad = []
    witness = rec["witness"]
    if (witness is not None) != rec["risk"]:
        bad.append(f"witness verdict {witness is not None} != Bayes-risk verdict {rec['risk']}")
    if witness is None:
        return bad
    k = witness.entries
    if k.shape != (q.size, w.size) or np.any(k < -TOL):
        bad.append("witness has the wrong shape or negative entries")
        return bad
    if not np.allclose(k.sum(axis=1), q.weights, rtol=0.0, atol=TOL):
        bad.append("witness row sums differ from Q's weights")
    if not np.allclose(k.sum(axis=0), w.weights, rtol=0.0, atol=TOL):
        bad.append("witness column sums differ from W's weights")
    if np.any(q.sigmas @ k > w.weights * w.sigmas + TOL):
        bad.append("witness breaks a column-mean inequality")
    w1 = rec["w1"]
    if not rec["p_ok"]:
        bad.append("P* realization is not a P-degradation of Q")
    if not bidmc.risk_dominates(w1, q):
        bad.append("P* realization is not a degradation of Q by the Bayes-risk oracle")
    if abs(bidmc.error_probability(w1) - bidmc.error_probability(q)) > TOL:
        bad.append("P* realization changes the error probability")
    if not bidmc.risk_dominates(w, w1):
        bad.append("P* realization does not upgrade W")
    return bad


def _wit_metrics(records):
    degraded = [r for r in records if r["witness"] is not None]
    return {
        "blackwell.degraded_frac": len(degraded) / len(records) if records else 0.0,
        "refine.to_pstar_plan.clr_mean": _mean(degraded, "clr"),
    }


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "opt-uniform", 29.0, _opt_make, _opt_op, _opt_summarise, _opt_check, _opt_metrics
        ),
        Workload(
            "arikan-baselines", 8.5, _ari_make, _ari_op, _ari_summarise, _ari_check, _ari_metrics
        ),
        Workload(
            "polar-chain", 0.85, _polar_make, _polar_op, _polar_summarise, _polar_check,
            _polar_metrics,
        ),
        Workload(
            "witness-check", 38.0, _wit_make, _wit_op, _wit_summarise, _wit_check, _wit_metrics
        ),
    )
}

# Every name a workload's record_metrics can return; the others report 0.
RECORD_METRICS = (
    "search.c_optimal_degradation.clr_mean",
    "search.tv_greedy_plan.clr_mean",
    "refine.refine_cuts.clr_mean",
    "polar.construct.clr_mean",
    "refine.to_pstar_plan.clr_mean",
    "blackwell.degraded_frac",
)
