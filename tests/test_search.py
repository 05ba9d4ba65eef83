import itertools
import math

import numpy as np
import pytest

from bidmc import (
    PPlusPlan,
    arikan_plus,
    binary_entropy,
    brute_force_c_optimal,
    c_optimal_degradation,
    canonicalize,
    capacity,
    enumerate_c_degradations,
    equivalent,
    error_probability,
    instance_rng,
    is_c_degradation,
    random_channel,
    realize_pplus,
    refine_cuts,
    tv_greedy_degrade,
    tv_greedy_plan,
)
from bidmc.search import iota_band

Q3 = canonicalize([(0.1, 0.5), (0.2, 0.3), (0.4, 0.2)])


def test_iota_band_matches_direct_groups():
    rng = instance_rng(51, 0)
    for _ in range(20):
        m = int(rng.integers(3, 12))
        q = random_channel(rng, m)
        band = iota_band(q, m)
        for s in range(1, m + 1):
            for e in range(s, m + 1):
                mass = sum(p.weight for p in q.particles[s - 1 : e])
                mean = sum(p.weight * p.sigma for p in q.particles[s - 1 : e]) / mass
                expect = mass * (1.0 - binary_entropy(mean))
                assert band[e - s, s] == pytest.approx(expect, abs=1e-12)


def test_iota_band_matches_offset_loop_exactly():
    """The blocked band equals a per-offset fill from the same prefix sums."""

    def reference(q, max_len):
        m = q.size
        w = q.weights
        s = q.sigmas
        cq = np.concatenate([[0.0], np.cumsum(w)])
        cqs = np.concatenate([[0.0], np.cumsum(w * s)])
        band = np.full((max_len, m + 1), np.nan)
        band[0, 1 : m + 1] = w * (1.0 - binary_entropy(s))
        for d in range(1, max_len):
            starts = np.arange(1, m - d + 1)
            mass = cq[starts + d] - cq[starts - 1]
            mean = (cqs[starts + d] - cqs[starts - 1]) / mass
            band[d, starts] = mass * (1.0 - binary_entropy(mean))
        return band

    channels = [random_channel(instance_rng(52, m), m) for m in (2, 5, 33, 70, 128)]
    # Skewed two-step chains: masses down to ~1e-10, crossovers near 0.
    channels += [arikan_plus(arikan_plus(random_channel(instance_rng(52, 1000 + i), 4))) for i in range(3)]
    for q in channels:
        m = q.size
        for n in sorted({2, min(4, m), min(10, m)}):
            for max_len in (m - n + 1, m):
                assert np.array_equal(iota_band(q, max_len), reference(q, max_len), equal_nan=True)


def test_enumerate_example_channel():
    plans = enumerate_c_degradations(Q3, 2)
    assert [p.cuts for p in plans] == [(2,), (3,)]


def test_enumerate_output_bound_b8():
    rng = instance_rng(51, 1)
    for i in range(20):
        q = random_channel(rng, 8)
        plans = enumerate_c_degradations(q, 4)
        assert len(plans) <= math.comb(7, 3) == 35


def test_enumerate_equals_filter():
    rng = instance_rng(51, 2)
    for trial in range(60):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        got = [p.cuts for p in enumerate_c_degradations(q, n)]
        expect = [
            c
            for c in itertools.combinations(range(2, m + 1), n - 1)
            if is_c_degradation(PPlusPlan(q, c))
        ]
        assert got == expect


def test_brute_force_example():
    plan, cap = brute_force_c_optimal(Q3, 2)
    assert plan.cuts == (3,)
    assert cap == pytest.approx(0.34368675842621577, abs=1e-12)


def test_brute_force_identity_at_n_equals_m():
    plan, cap = brute_force_c_optimal(Q3, 3)
    assert equivalent(realize_pplus(plan), Q3)
    assert cap == pytest.approx(capacity(Q3), abs=1e-12)


def test_brute_force_guard():
    rng = instance_rng(51, 3)
    q = random_channel(rng, 40)
    with pytest.raises(ValueError):
        brute_force_c_optimal(q, 15)


def test_brute_force_optimum_is_c_degradation():
    rng = instance_rng(51, 4)
    for _ in range(40):
        m = int(rng.integers(4, 11))
        n = int(rng.integers(2, min(m, 6)))
        q = random_channel(rng, m)
        plan, _ = brute_force_c_optimal(q, n)
        assert is_c_degradation(plan)
        assert plan.cuts in [p.cuts for p in enumerate_c_degradations(q, n)]


def test_dp_matches_brute_force():
    rng = instance_rng(51, 5)
    for _ in range(120):
        m = int(rng.integers(4, 20))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        _, cap = brute_force_c_optimal(q, n)
        _, table_p = c_optimal_degradation(q, n, pruning=True)
        _, table_f = c_optimal_degradation(q, n, pruning=False)
        assert table_p.capacity == pytest.approx(cap, abs=1e-9)
        assert table_f.capacity == pytest.approx(cap, abs=1e-9)


def test_dp_plan_capacity_matches_table():
    rng = instance_rng(51, 6)
    for _ in range(40):
        m = int(rng.integers(4, 24))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        plan, table = c_optimal_degradation(q, n)
        assert capacity(realize_pplus(plan)) == pytest.approx(
            table.capacity, abs=1e-9
        )
        assert is_c_degradation(plan)


def test_pruned_counter_never_exceeds_full():
    rng = instance_rng(51, 7)
    for _ in range(80):
        m = int(rng.integers(4, 34))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        _, tp = c_optimal_degradation(q, n, pruning=True)
        _, tf = c_optimal_degradation(q, n, pruning=False)
        assert tp.evaluations <= tf.evaluations
        assert tp.capacity == pytest.approx(tf.capacity, abs=1e-9)


def test_pruning_soundness_tables():
    # No state on the full run's optimal traceback may be pruned, and the
    # pruned values match the full values wherever both exist.
    rng = instance_rng(51, 8)
    for _ in range(60):
        m = int(rng.integers(5, 14))
        n = int(rng.integers(3, min(m, 7)))
        q = random_channel(rng, m)
        plan_f, tf = c_optimal_degradation(q, n, pruning=False)
        plan_p, tp = c_optimal_degradation(q, n, pruning=True)
        assert tp.capacity == pytest.approx(tf.capacity, abs=1e-9)
        # Pruned stage values never exceed full ones; equal where computed.
        for vals_p, vals_f in zip(tp.values[:-1], tf.values[:-1]):
            both = ~np.isnan(vals_p)
            assert np.all(vals_p[both] <= vals_f[both] + 1e-12)
        # Traceback states of the full run must be alive in the pruned run.
        cuts = plan_f.cuts
        for j, k in enumerate(cuts, start=1):
            i_end = k - 1  # last particle of group j
            row = i_end - j
            assert not tp.pruned[j - 1][row], "optimal traceback hit a pruned state"


def test_dp_decision_band():
    rng = instance_rng(51, 9)
    for _ in range(20):
        m = int(rng.integers(6, 16))
        n = int(rng.integers(3, min(m, 7)))
        q = random_channel(rng, m)
        _, table = c_optimal_degradation(q, n, pruning=False)
        size = m - n + 1
        for stage_idx, dec in enumerate(table.decisions[1:-1], start=2):
            for a, b in enumerate(dec):
                if b >= 0:
                    assert 0 <= b <= a


def test_tv_greedy_identity_and_bound():
    assert tv_greedy_degrade(Q3, 3) is Q3
    rng = instance_rng(51, 10)
    for _ in range(40):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        w = tv_greedy_degrade(q, n)
        assert w.size <= n
        assert error_probability(w) == pytest.approx(
            error_probability(q), abs=1e-9
        )
        _, best = brute_force_c_optimal(q, n)
        assert capacity(w) <= best + 1e-9


def _tv_greedy_reference(q, n):
    """The O(m^2) greedy merge that re-scores every adjacent pair per merge."""
    m = q.size
    if not (2 <= n <= m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    w = q.weights
    s = q.sigmas
    cq = np.concatenate([[0.0], np.cumsum(w)])
    cqs = np.concatenate([[0.0], np.cumsum(w * s)])

    def iota(a: int, b: int) -> float:  # particles a..b-1, 0-indexed half-open
        mass = float(cq[b] - cq[a])
        mean = float(cqs[b] - cqs[a]) / mass
        return mass * (1.0 - float(binary_entropy(mean)))

    edges = list(range(m + 1))  # group j = [edges[j], edges[j+1])
    while len(edges) - 1 > n:
        best_loss = np.inf
        best_j = -1
        for j in range(len(edges) - 2):
            a, b, c = edges[j], edges[j + 1], edges[j + 2]
            loss = iota(a, b) + iota(b, c) - iota(a, c)
            if loss < best_loss:
                best_loss = loss
                best_j = j
        del edges[best_j + 1]
    return PPlusPlan(q, tuple(e + 1 for e in edges[1:-1]))


def test_tv_greedy_matches_reference():
    cases = []
    for n in range(4, 11):
        # A subsample of the criterion-06 ensemble.
        for i in range(0, 300 if n <= 8 else 200, 10):
            q = arikan_plus(random_channel(instance_rng(106, 1000 * n + i), n))
            if q.size > n:
                cases.append((q, n))
        for m in (16, 32, 64, 128):
            cases.append((random_channel(instance_rng(53, 100 * m + n), m), n))
    for m in (2, 3, 16, 64):
        q = random_channel(instance_rng(54, m), m)
        cases += [(q, n) for n in sorted({2, m - 1, m}) if n >= 2]
    cases.append((random_channel(instance_rng(55, 256), 256), 16))
    for q, n in cases:
        assert tv_greedy_plan(q, n).cuts == _tv_greedy_reference(q, n).cuts, (q.size, n)


def test_method_ordering_instancewise():
    rng = instance_rng(51, 11)
    for _ in range(60):
        m = int(rng.integers(5, 20))
        n = int(rng.integers(2, min(m, 8)))
        q = random_channel(rng, m)
        plan_opt, _ = c_optimal_degradation(q, n)
        plan_tv = tv_greedy_plan(q, n)
        plan_tvs = refine_cuts(plan_tv)
        c_opt = capacity(realize_pplus(plan_opt))
        c_tv = capacity(realize_pplus(plan_tv))
        c_tvs = capacity(realize_pplus(plan_tvs))
        assert c_opt >= c_tvs - 1e-12
        assert c_tvs >= c_tv - 1e-12


def test_dp_rejects_bad_n():
    with pytest.raises(ValueError):
        c_optimal_degradation(Q3, 1)
    with pytest.raises(ValueError):
        c_optimal_degradation(Q3, 3)
    with pytest.raises(ValueError):
        enumerate_c_degradations(Q3, 5)
