"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every ensemble is seeded through counter-based instance generators, so the
suite is deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from bidmc import (
    PPlusPlan,
    PStarPlan,
    arikan_minus,
    arikan_plus,
    brute_force_c_optimal,
    c_optimal_degradation,
    canonicalize,
    capacity,
    dp_tables,
    enumerate_c_degradations,
    error_probability,
    find_degradation_witness,
    instance_rng,
    is_c_degradation,
    is_p_degradation,
    mean_degradation,
    plan_witness,
    random_channel,
    realize_pplus,
    realize_pstar,
    risk_dominates,
    split_threshold,
)
from bidmc.experiments import arikan_clr, pplus_stats
from bidmc.refine import InvalidPlanError

from boundary_shift import _boundary_shift_gain
from channel_helpers import equivalent
from opt_clr import opt_clr

REFERENCE_OPT_CLR = {
    128: [0.0232, 0.0145, 0.0097, 0.0069, 0.0051, 0.0040, 0.0030],
    64: [0.0223, 0.0137, 0.0091, 0.0064, 0.0047, 0.0035, 0.0027],
    32: [0.0182, 0.0105, 0.0065, 0.0043, 0.0029, 0.0021, 0.0015],
    16: [0.0120, 0.0061, 0.0032, 0.0018, 0.0010, 0.0006, 0.0003],
}
REFERENCE_ARIKAN = {  # n -> (opt, tv, tv*)
    4: (0.0127, 0.0134, 0.0130),
    5: (0.0093, 0.0099, 0.0095),
    6: (0.0072, 0.0077, 0.0074),
    7: (0.0057, 0.0062, 0.0059),
    8: (0.0047, 0.0051, 0.0049),
    9: (0.0039, 0.0043, 0.0041),
    10: (0.0031, 0.0034, 0.0032),
}


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def crit1_combos():
    out = []
    for m in (8, 16, 32):
        for n in range(2, 9):
            if n < m and math.comb(m - 1, n - 1) <= 10**6:
                out.append((m, n))
    return out


def test_criterion_01_dp_equals_brute_force():
    t0 = time.time()
    combos = crit1_combos()
    worst = 0.0
    for i in range(1000):
        rng = instance_rng(101, i)
        m, n = combos[int(rng.integers(0, len(combos)))]
        q = random_channel(rng, m)
        _, cap_bf = brute_force_c_optimal(q, n)
        _, cap = c_optimal_degradation(q, n, pruning=True)
        worst = max(worst, abs(cap - cap_bf))
        assert abs(cap - cap_bf) <= 1e-9, (i, m, n)
    elapsed = time.time() - t0
    verdict(
        1,
        elapsed < 60.0,
        f"DP = brute force on 1000 channels, max |diff| = {worst:.2e}, "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_02_pruning_soundness():
    reductions = []
    for i in range(1000):
        rng = instance_rng(102, i)
        combos = crit1_combos()
        m, n = combos[int(rng.integers(0, len(combos)))]
        q = random_channel(rng, m)
        _, tp = dp_tables([q], n, True)[0]
        _, tf = dp_tables([q], n, False)[0]
        assert abs(tp.capacity - tf.capacity) <= 1e-9, (i, m, n)
        assert tp.evaluations <= tf.evaluations, (i, m, n)
        reductions.append(1.0 - tp.evaluations / tf.evaluations)
    mean_red = float(np.mean(reductions))
    verdict(
        2,
        mean_red > 0.0,
        f"pruned capacity = full capacity and pruned evaluations <= full on "
        f"1000/1000 instances; mean evaluation reduction {100 * mean_red:.1f}%",
    )


def test_criterion_03_enumeration_exactness():
    t0 = time.time()
    contained = 0
    for i in range(500):
        rng = instance_rng(103, i)
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        got = [p.cuts for p in enumerate_c_degradations(q, n)]
        expect = [
            c
            for c in itertools.combinations(range(2, m + 1), n - 1)
            if is_c_degradation(PPlusPlan(q, c))
        ]
        assert got == expect, (i, m, n)
        plan, _ = brute_force_c_optimal(q, n)
        assert plan.cuts in got, (i, m, n)
        contained += 1
    elapsed = time.time() - t0
    verdict(
        3,
        elapsed < 30.0,
        f"enumeration = window filter and optimum contained on {contained}/500 "
        f"instances, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_04_pplus_statistics():
    records = pplus_stats(104, range(2000), 8, 4)
    counts, best_clrs = records["c_count"], records["c_clr"]
    pplus_count = math.comb(7, 3)
    mean_count = float(np.mean(counts))
    mean_clr = float(np.mean(best_clrs))
    ok = (
        pplus_count == 35
        and 3.4 <= mean_count <= 13.5
        and 0.0024 <= mean_clr <= 0.0096
    )
    verdict(
        4,
        ok,
        f"cut-plan count {pplus_count} (= 35), mean C-degradation count "
        f"{mean_count:.3f} in [3.4, 13.5], mean C-optimal CLR {mean_clr:.4f} "
        f"in [0.0024, 0.0096]",
    )


def test_criterion_05_optimal_clr_grid():
    t0 = time.time()
    samples = {16: 2000, 32: 2000, 64: 1000, 128: 600}
    grid = {}
    for m in (16, 32, 64, 128):
        for j, n in enumerate(range(4, 11)):
            first = 1_000_000 * m + 10_000 * n
            grid[(m, n)] = float(np.mean(opt_clr(105, range(first, first + samples[m]), m, n)["clr"]))
    elapsed = time.time() - t0

    for m in (16, 32, 64, 128):
        row = [grid[(m, n)] for n in range(4, 11)]
        assert all(a > b for a, b in zip(row, row[1:])), f"row m={m} not decreasing: {row}"
    for n in range(4, 11):
        col = [grid[(m, n)] for m in (16, 32, 64, 128)]
        assert all(a < b for a, b in zip(col, col[1:])), f"column n={n} not increasing: {col}"
    worst_ratio = 1.0
    for m in (16, 32, 64, 128):
        for j, n in enumerate(range(4, 11)):
            ratio = grid[(m, n)] / REFERENCE_OPT_CLR[m][j]
            worst_ratio = max(worst_ratio, max(ratio, 1.0 / ratio))
            assert 0.5 <= ratio <= 2.0, f"cell (m={m}, n={n}): {grid[(m, n)]:.5f} vs {REFERENCE_OPT_CLR[m][j]}"
    verdict(
        5,
        elapsed < 1200.0,
        f"28-cell grid decreasing in n, increasing in m, all cells within "
        f"factor {worst_ratio:.2f} <= 2 of the reference values, runtime "
        f"{elapsed:.0f}s < 1200s",
    )


def test_criterion_06_baseline_ordering():
    means = {}
    for n in range(4, 11):
        nsamp = 300 if n <= 8 else 200
        rec = arikan_clr(106, range(1000 * n, 1000 * n + nsamp), n, c_stats=False)
        keep = rec["size"] > n
        cq, c_opt, c_tv, c_tvs = (rec[key][keep] for key in ("capacity", "opt", "tv", "tv_star"))
        i = np.flatnonzero(keep)  # instance 1000 n + i
        assert (c_opt >= c_tvs - 1e-12).all(), (n, i[c_opt < c_tvs - 1e-12])
        assert (c_tvs >= c_tv - 1e-12).all(), (n, i[c_tvs < c_tv - 1e-12])
        means[n] = tuple(float(np.mean((cq - c) / cq)) for c in (c_opt, c_tv, c_tvs))
    for n, (p_opt, p_tv, p_tvs) in REFERENCE_ARIKAN.items():
        m_opt, m_tv, m_tvs = means[n]
        for got, ref in ((m_opt, p_opt), (m_tv, p_tv), (m_tvs, p_tvs)):
            assert 0.5 <= got / ref <= 2.0, (n, got, ref)
    verdict(
        6,
        True,
        "capacity(opt) >= capacity(tv*) >= capacity(tv) on every instance; "
        f"n=4 means (opt/tv*/tv) = {means[4][0]:.4f}/{means[4][2]:.4f}/"
        f"{means[4][1]:.4f} vs 0.0127/0.0130/0.0134, all n within factor 2",
    )


def test_criterion_07_order_oracle_agreement():
    agree = 0
    for i in range(1000):
        rng = instance_rng(107, i)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        q = random_channel(rng, m)
        kind = i % 3
        if kind == 0:
            w = random_channel(rng, n)
        else:
            k = np.zeros((m, n))
            for r, p in enumerate(q.particles):
                k[r] = rng.dirichlet(np.ones(n)) * p.weight
            cols = k.sum(axis=0)
            means = (q.sigmas @ k) / cols
            t = rng.uniform(0.0, 1.0, size=n) if kind == 1 else rng.uniform(0.0, 0.02, size=n)
            eps = means + t * (0.5 - means)
            if kind == 2 and rng.uniform() < 0.5:
                eps = np.maximum(means - 0.01, 0.0)  # slightly upgraded: not a degradation
            w = canonicalize(list(zip(eps.tolist(), cols.tolist())))
        lp = find_degradation_witness(w, q) is not None
        curve = risk_dominates(w, q)
        assert lp == curve, (i, m, n)
        agree += 1
    verdict(7, agree == 1000, f"witness and Bayes-risk verdicts agree on {agree}/1000 pairs")


def test_criterion_08_p_degradation_invariants():
    rng0 = instance_rng(108, 0)
    for i in range(300):
        rng = instance_rng(108, i + 1)
        m = int(rng.integers(3, 10))
        q = random_channel(rng, m)
        n = int(rng.integers(2, m + 1))
        if bool(rng.integers(0, 2)) or n >= m:
            cuts = tuple(
                int(c)
                for c in np.sort(rng.choice(np.arange(2, m + 1), size=min(n, m) - 1, replace=False))
            )
            plan = PPlusPlan(q, cuts)
            w = realize_pplus(plan)
        else:
            idx = np.sort(rng.choice(np.arange(1, m + 1), size=n - 1, replace=False))
            splits = tuple(float(rng.uniform(0.0, q.particles[j - 1].weight)) for j in idx)
            try:
                plan = PStarPlan(q, tuple(int(j) for j in idx), splits)
            except InvalidPlanError:
                continue
            w = realize_pstar(plan)
        assert abs(error_probability(w) - error_probability(q)) <= 1e-9, i
        wit = plan_witness(plan)
        mom = q.sigmas @ wit.entries
        assert np.allclose(mom, w.weights * w.sigmas, atol=1e-9), i
        if i % 10 == 0:
            ok, _ = is_p_degradation(w, q)
            assert ok, i
    # Minimum-error two-output degradation is the exact weighted mean.
    for i in range(100):
        rng = instance_rng(108, 10_000 + i)
        q = random_channel(rng, int(rng.integers(1, 9)))
        expect = float(np.dot(q.weights, q.sigmas))
        got = mean_degradation(q).particles[0].sigma
        assert got == pytest.approx(expect, abs=1e-15), i
    verdict(
        8,
        True,
        "realized plans preserve error probability (<= 1e-9), admit equality "
        "witnesses, and the two-output minimum-error channel is the exact mean",
    )


def test_criterion_09_arikan_identities():
    worst = 0.0
    for i in range(1000):
        rng = instance_rng(109, i)
        w = random_channel(rng, int(rng.integers(1, 9)))
        gap = abs(
            capacity(arikan_minus(w)) + capacity(arikan_plus(w)) - 2.0 * capacity(w)
        )
        worst = max(worst, gap)
        assert gap <= 1e-9, i
        assert arikan_plus(w).size <= w.size**2 + 1, i
    pairs = 0
    i = 0
    while pairs < 100:
        rng = instance_rng(109, 10_000 + i)
        i += 1
        q = random_channel(rng, int(rng.integers(2, 5)))
        ng = int(rng.integers(1, q.size))
        cuts = tuple(
            int(c)
            for c in np.sort(rng.choice(np.arange(2, q.size + 1), size=ng - 1, replace=False))
        )
        w = realize_pplus(PPlusPlan(q, cuts))
        assert find_degradation_witness(arikan_minus(w), arikan_minus(q)) is not None, i
        assert find_degradation_witness(arikan_plus(w), arikan_plus(q)) is not None, i
        pairs += 1
    verdict(
        9,
        True,
        f"capacity conservation within {worst:.2e} on 1000 channels, plus-size "
        f"bound n^2+1 held, transform monotonicity witnessed on {pairs} pairs",
    )


def _adjusted_plans(plan, positions, grid=(0.0, 1 / 3, 2 / 3, 1.0)):
    q = plan.source
    m = q.size
    options = []
    for _ in positions:
        slot_opts = []
        for idx in range(1, m + 1):
            qi = q.particles[idx - 1].weight
            for frac in grid:
                slot_opts.append((idx, frac * qi))
        options.append(slot_opts)
    out = []

    def rec(k, acc):
        if k == len(positions):
            idx = list(plan.indices)
            spl = list(plan.splits)
            for slot, (i2, s2) in zip(positions, acc):
                idx[slot] = i2
                spl[slot] = s2
            try:
                out.append(PStarPlan(q, tuple(idx), tuple(spl)))
            except InvalidPlanError:
                pass
            return
        for opt in options[k]:
            rec(k + 1, acc + [opt])

    rec(0, [])
    return out


def test_criterion_10_no_upgrade_by_two_adjustments():
    plans_checked = 0
    candidates_checked = 0
    i = 0
    while plans_checked < 200:
        rng = instance_rng(110, i)
        i += 1
        m = int(rng.integers(4, 9))
        n = int(rng.integers(2, 5))
        if n >= m:
            continue
        q = random_channel(rng, m)
        idx = np.sort(rng.choice(np.arange(1, m + 1), size=n - 1, replace=False))
        splits = []
        for j in idx:
            u = rng.uniform()
            qi = q.particles[j - 1].weight
            splits.append(0.0 if u < 0.25 else (qi if u < 0.5 else float(rng.uniform(0, qi))))
        try:
            plan = PStarPlan(q, tuple(int(j) for j in idx), tuple(splits))
        except InvalidPlanError:
            continue
        w = realize_pstar(plan)
        cap_w = capacity(w)
        slots = list(range(n - 1))
        position_sets = [(s,) for s in slots] + [
            (a, b) for a in slots for b in slots if a < b
        ]
        for positions in position_sets:
            for cand in _adjusted_plans(plan, list(positions)):
                w2 = realize_pstar(cand)
                if capacity(w2) < cap_w - 1e-12 or equivalent(w2, w, tol=1e-9):
                    continue
                candidates_checked += 1
                if find_degradation_witness(w, w2) is not None:
                    assert find_degradation_witness(w2, w) is not None, (i, positions, cand.indices, cand.splits)
        plans_checked += 1
    verdict(
        10,
        plans_checked == 200,
        f"no strict upgrade among one/two-pattern adjustments of {plans_checked} "
        f"plans ({candidates_checked} nontrivial candidates witness-checked)",
    )


def test_criterion_11_threshold_and_shift_checks():
    rng = instance_rng(111, 0)
    for _ in range(10_000):
        e1 = float(rng.uniform(1e-9, 0.5 - 2e-9))
        e2 = float(rng.uniform(e1 + 1e-9, 0.5 - 1e-9))
        t = split_threshold(e1, e2)
        assert e1 < t < e2
    signs_ok = 0
    for i in range(1000):
        rng = instance_rng(111, i + 1)
        e1 = float(rng.uniform(0.01, 0.45))
        e2 = float(rng.uniform(e1 + 0.01, 0.49))
        sigma = float(rng.uniform(e1, e2))
        p1 = float(rng.uniform(0.05, 0.6))
        p2 = float(rng.uniform(0.05, max(1.0 - p1 - 0.01, 0.06)))
        t = split_threshold(e1, e2)
        if sigma >= t:
            xs = np.linspace(0.0, 0.999 * p1 * min(1.0, e1 / sigma), 10)
            gains = _boundary_shift_gain(sigma, e1, p1, e2, p2, xs)
            assert np.all(np.diff(gains) >= -1e-12), i
        if sigma <= t:
            span = 0.999 * p2 * min(1.0, (1 - 2 * e2) / (1 - 2 * sigma))
            xs = np.linspace(-span, 0.0, 10)
            gains = _boundary_shift_gain(sigma, e1, p1, e2, p2, xs)
            assert np.all(np.diff(gains) <= 1e-12), i
        signs_ok += 1
    verdict(
        11,
        signs_ok == 1000,
        "threshold strictly inside (e1, e2) on 10^4 pairs; boundary-shift "
        f"capacity deltas have the predicted sign on {signs_ok}/1000 configurations",
    )
