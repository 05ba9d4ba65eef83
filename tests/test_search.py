import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidmc import (
    PPlusPlan,
    arikan_minus,
    arikan_plus,
    binary_entropy,
    brute_force_c_optimal,
    c_optimal_degradation,
    c_optimal_degradations,
    canonicalize,
    capacity,
    dp_tables,
    enumerate_c_degradations,
    error_probability,
    instance_rng,
    is_c_degradation,
    random_channel,
    realize_pplus,
    refine_cuts,
    tv_greedy_plan,
)
from bidmc import refine, search
from bidmc.refine import _group_stats, _segment_table

import decimal_oracle
from channel_helpers import equivalent
from dfs_enumeration import c_degradation_cuts
from dp_stages import dp_stage_tables, iota_band
from skewed_channels import skewed_channels
from test_acceptance import crit1_combos

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


@st.composite
def _polar_chain(draw, n):
    """A channel from a degrade-then-transform chain at depth 5 or 6.

    The base has 2-4 particles and each level re-quantizes to n particles,
    so the last transform has at most n^2 + 1; the all-plus and all-minus
    branches drive crossovers towards 0 and 1/2 and masses down to
    round-off.
    """
    q = random_channel(instance_rng(draw(st.integers(0, 10**6)), 0), draw(st.integers(2, 4)))
    bits = draw(st.lists(st.booleans(), min_size=5, max_size=6))
    for bit in bits:
        if q.size > n:
            q = realize_pplus(c_optimal_degradation(q, n)[0])
        q = arikan_plus(q) if bit else arikan_minus(q)
    return q


@st.composite
def _polar_chain_inputs(draw):
    """A DP input from a polar chain with n = 3 or 4."""
    n = draw(st.integers(3, 4))
    q = draw(_polar_chain(n))
    assume(q.size > n)
    return q, n


@settings(max_examples=40)
@given(_polar_chain_inputs())
def test_iota_band_and_optimum_match_decimal_oracle(inp):
    q, n = inp
    m = q.size
    w, s = q.weights.tolist(), q.sigmas.tolist()
    groups = decimal_oracle.band(w, s)
    band = iota_band(q, m)
    masses, means, _ = _segment_table(q.weights, q.sigmas, m, 0)
    starts, stops = np.array(list(groups)).T
    group_masses, group_means = _group_stats(q.weights, q.sigmas, starts, stops)
    for (a, b), expect, mass, mean in zip(groups, groups.values(), group_masses, group_means):
        assert abs(band[b - a - 1, a + 1] - float(expect)) <= 1e-13 * float(expect), (a, b)
        assert s[a] <= means[b - a - 1, a] <= s[b - 1], (a, b)
        assert (mass, mean) == (masses[b - a - 1, a], means[b - a - 1, a]), (a, b)
    best = decimal_oracle.optimum(groups, m, n)
    for plan in (brute_force_c_optimal(q, n)[0], c_optimal_degradation(q, n)[0]):
        assert best - decimal_oracle.plan_capacity(groups, m, plan.cuts) <= Decimal("1e-9") * best


def test_enumerate_example_channel():
    plans = enumerate_c_degradations(Q3, 2)
    assert [p.cuts for p in plans] == [(2,), (3,)]


def test_enumerate_output_bound_b8():
    rng = instance_rng(51, 1)
    for i in range(20):
        q = random_channel(rng, 8)
        plans = enumerate_c_degradations(q, 4)
        assert len(plans) <= math.comb(7, 3) == 35


def _filtered_cuts(q, n):
    return [
        c
        for c in itertools.combinations(range(2, q.size + 1), n - 1)
        if is_c_degradation(PPlusPlan(q, c))
    ]


def test_enumerate_equals_filter():
    rng = instance_rng(51, 2)
    for trial in range(60):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        assert [p.cuts for p in enumerate_c_degradations(q, n)] == _filtered_cuts(q, n)


@pytest.fixture
def batch_entries(monkeypatch):
    """Sets search._BATCH_ENTRIES, so that each walk runs in the chunks it
    sets."""
    yield lambda entries: monkeypatch.setattr(search, "_BATCH_ENTRIES", entries)


@pytest.mark.parametrize("per_particle", [0, 1, 3])
def test_enumerate_in_small_chunks_equals_filter(batch_entries, per_particle):
    # A few prefixes per chunk, or (at 0) one prefix per chunk.
    rng = instance_rng(51, 7)
    for trial in range(40):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        batch_entries(per_particle * m)
        assert [p.cuts for p in enumerate_c_degradations(q, n)] == _filtered_cuts(q, n)


@settings(max_examples=100)
@given(skewed_channels())
def test_enumerate_matches_the_depth_first_oracle_on_skewed_channels(drawn):
    q, n = drawn
    assert [p.cuts for p in enumerate_c_degradations(q, n)] == c_degradation_cuts(q, n)


@settings(max_examples=100)
@given(skewed_channels())
def test_enumerate_equals_filter_on_skewed_channels(drawn):
    q, n = drawn
    assert [p.cuts for p in enumerate_c_degradations(q, n)] == _filtered_cuts(q, n)


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


@pytest.mark.parametrize("m, n", crit1_combos() + [(2, 2), (3, 2), (5, 5), (9, 8)])
def test_cut_vectors_match_itertools(m, n):
    assert np.array_equal(_traced_cut_vectors(m, n), _itertools_cut_vectors(m, n))


@pytest.mark.parametrize("m, n", crit1_combos() + [(2, 2), (3, 2), (5, 5), (9, 8)])
def test_cut_vectors_in_small_chunks_match_itertools(batch_entries, m, n):
    batch_entries(4 * m)
    assert np.array_equal(_traced_cut_vectors(m, n), _itertools_cut_vectors(m, n))


def _traced_cut_vectors(m, n):
    cuts, parents = search._walk(m, n)
    return search._trace(cuts, parents, np.arange(cuts[-1].size))


def _itertools_cut_vectors(m, n):
    cuts = list(itertools.combinations(range(2, m + 1), n - 1))
    return np.array(cuts, dtype=np.int64).reshape(len(cuts), n - 1)


def test_brute_force_optimum_is_c_degradation():
    rng = instance_rng(51, 4)
    for _ in range(40):
        m = int(rng.integers(4, 11))
        n = int(rng.integers(2, min(m, 6)))
        q = random_channel(rng, m)
        plan, _ = brute_force_c_optimal(q, n)
        assert is_c_degradation(plan)
        assert plan.cuts in [p.cuts for p in enumerate_c_degradations(q, n)]


_LONG_CELLS = [(10, 8), (12, 9), (14, 11), (16, 10), (18, 8), (20, 12), (22, 16)]


@pytest.mark.parametrize("m, n", crit1_combos() + _LONG_CELLS)
def test_brute_force_capacity_equals_the_dp_bit_for_bit(m, n):
    # Both sum each plan's groups left to right, so wherever they pick the
    # same cuts their capacities are the same float.
    assert math.comb(m - 1, n - 1) <= search.BRUTE_FORCE_GUARD
    rng = instance_rng(53, m * 100 + n)
    same = 0
    for _ in range(8):
        q = random_channel(rng, m)
        plan, cap = brute_force_c_optimal(q, n)
        dp_plan, dp_cap = c_optimal_degradation(q, n)
        if plan.cuts == dp_plan.cuts:
            assert cap.hex() == dp_cap.hex()
            same += 1
    assert same > 0


def test_dp_matches_brute_force():
    rng = instance_rng(51, 5)
    for _ in range(120):
        m = int(rng.integers(4, 20))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        _, cap = brute_force_c_optimal(q, n)
        _, cap_p = c_optimal_degradation(q, n, pruning=True)
        _, cap_f = c_optimal_degradation(q, n, pruning=False)
        assert cap_p == pytest.approx(cap, abs=1e-9)
        assert cap_f == pytest.approx(cap, abs=1e-9)


def test_dp_plan_capacity_matches_table():
    rng = instance_rng(51, 6)
    for _ in range(40):
        m = int(rng.integers(4, 24))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        plan, cap = c_optimal_degradation(q, n)
        assert capacity(realize_pplus(plan)) == pytest.approx(cap, abs=1e-9)
        assert is_c_degradation(plan)


def test_pruned_counter_never_exceeds_full():
    rng = instance_rng(51, 7)
    for _ in range(80):
        m = int(rng.integers(4, 34))
        n = int(rng.integers(2, min(m, 9)))
        q = random_channel(rng, m)
        _, tp = dp_tables([q], n, True)[0]
        _, tf = dp_tables([q], n, False)[0]
        assert tp.evaluations <= tf.evaluations
        assert tp.capacity == pytest.approx(tf.capacity, abs=1e-9)


def test_unpruned_dp_counts_every_alive_lower_triangle_entry():
    # With s = m - n + 1 states per stage, each of stages 2..n-1 computes the
    # s(s + 1)/2 entries of its lower triangle and the last stage the s
    # entries of its one row; nothing is pruned.  The unpruned counters are
    # that closed form, so this only checks that dp_tables applies it at each
    # channel's own size; test_dp_stage_reference counts the entries.
    rng = instance_rng(51, 10)
    qs = [random_channel(rng, 40) for _ in range(6)]
    qs += [arikan_plus(random_channel(instance_rng(52, i), 6)) for i in range(6)]
    for n in range(4, 11):
        for q in qs:
            if q.size <= n:
                continue
            _, table = dp_tables([q], n, False)[0]
            s = q.size - n + 1
            assert table.evaluations == (n - 2) * s * (s + 1) // 2 + s
            assert table.pruned_states == 0


def test_pruning_soundness_tables():
    # No state on the full run's optimal traceback may be pruned, and the
    # pruned values match the full values wherever both exist.
    rng = instance_rng(51, 8)
    for _ in range(60):
        m = int(rng.integers(5, 14))
        n = int(rng.integers(3, min(m, 7)))
        q = random_channel(rng, m)
        plan_f, tf = dp_stage_tables([q], n, False)[0]
        plan_p, tp = dp_stage_tables([q], n, True)[0]
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
        _, table = dp_stage_tables([q], n, False)[0]
        size = m - n + 1
        for stage_idx, dec in enumerate(table.decisions[1:-1], start=2):
            for a, b in enumerate(dec):
                if b >= 0:
                    assert 0 <= b <= a


def test_tv_greedy_identity_and_bound():
    assert equivalent(realize_pplus(tv_greedy_plan(Q3, 3)), Q3)
    rng = instance_rng(51, 10)
    for _ in range(40):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(2, min(m, 7)))
        q = random_channel(rng, m)
        w = realize_pplus(tv_greedy_plan(q, n))
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
    band = iota_band(q, m).tolist()

    def iota(a: int, b: int) -> float:  # particles a..b-1, 0-indexed half-open
        return band[b - a - 1][a + 1]

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


@st.composite
def _greedy_inputs(draw):
    """A skewed polar-chain channel and any n from 2 to its size."""
    q = draw(_polar_chain(draw(st.integers(3, 4))))
    assume(q.size >= 2)
    return q, draw(st.integers(2, q.size))


@settings(max_examples=40)
@given(_greedy_inputs(), st.booleans())
def test_tv_greedy_matches_reference_on_polar_chains(inp, short_table):
    # With the table budget at 3m the segment table holds groups of at most
    # three particles, so every longer group takes the forward-sum path.
    q, n = inp
    with pytest.MonkeyPatch.context() as patch:
        if short_table:
            patch.setattr(search, "_BATCH_ENTRIES", 3 * q.size)
        got = tv_greedy_plan(q, n).cuts
    assert got == _tv_greedy_reference(q, n).cuts


def test_tv_greedy_matches_reference_past_the_table():
    # At m = 1024 the table holds groups of up to 128 particles, and the
    # four final groups are longer.
    q = random_channel(instance_rng(56, 1024), 1024)
    assert tv_greedy_plan(q, 4).cuts == _tv_greedy_reference(q, 4).cuts


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


def _assert_same_result(got, want):
    """Cuts, capacity bits, counters and every stage's arrays are equal."""
    (plan_g, table_g), (plan_w, table_w) = got, want
    assert plan_g.cuts == plan_w.cuts
    assert table_g.capacity.hex() == table_w.capacity.hex()
    assert table_g.evaluations == table_w.evaluations
    assert table_g.pruned_states == table_w.pruned_states
    for field in ("values", "decisions", "pruned"):
        stages_g, stages_w = getattr(table_g, field), getattr(table_w, field)
        assert len(stages_g) == len(stages_w), field
        for g, w in zip(stages_g, stages_w):
            assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True), field


@pytest.mark.parametrize("pruning", [True, False])
def test_batch_equals_single_calls_on_ragged_stacks(pruning):
    rng = instance_rng(51, 12)
    for n in (2, 4, 7):
        sizes = rng.permutation(np.arange(n + 1, 41))
        qs = [random_channel(rng, int(m)) for m in sizes]
        for stack in (qs, qs[:1]):
            for q, got in zip(stack, dp_stage_tables(stack, n, pruning), strict=True):
                _assert_same_result(got, dp_stage_tables([q], n, pruning)[0])


@st.composite
def _polar_chain_stacks(draw):
    n = draw(st.integers(3, 4))
    qs = [q for q in draw(st.lists(_polar_chain(n), min_size=1, max_size=6)) if q.size > n]
    assume(qs)
    return qs, n


@settings(max_examples=30)
@given(_polar_chain_stacks(), st.booleans())
def test_batch_equals_single_calls_on_polar_chains(stack, pruning):
    qs, n = stack
    for q, got in zip(qs, dp_stage_tables(qs, n, pruning), strict=True):
        _assert_same_result(got, dp_stage_tables([q], n, pruning)[0])


def test_batch_edge_cases():
    assert c_optimal_degradations([], 4) == []
    q = random_channel(instance_rng(51, 13), 10)
    with pytest.raises(ValueError) as single:
        c_optimal_degradation(Q3, 3)
    with pytest.raises(ValueError) as batch:
        c_optimal_degradations([q, Q3], 3)
    assert str(batch.value) == str(single.value)


def test_batch_equals_single_calls_with_dead_states(monkeypatch):
    # A negative window tolerance also prunes cuts that pass their window by
    # less than 0.003, so states die inside channels (valid channels almost
    # never lose one): each instance must keep its own alive columns.
    monkeypatch.setattr(refine, "PHI_STRICT_TOL", -3e-3)
    rng = instance_rng(51, 15)
    for n in (3, 5):
        qs, singles = [], []
        for m in rng.permutation(np.arange(n + 1, 41)):
            q = random_channel(rng, int(m))
            try:
                singles.append(dp_stage_tables([q], n, True)[0])
            except RuntimeError:
                continue
            qs.append(q)
        assert sum(table.pruned_states > 0 for _, table in singles) >= 10
        for got, want in zip(dp_stage_tables(qs, n, True), singles, strict=True):
            _assert_same_result(got, want)


@pytest.mark.parametrize(
    "safe, cuts",
    [
        ([(0.0, 0.3), (0.2, 0.3), (0.4, 0.4)], (2,)),
        ([(0.0, 0.25), (0.2, 0.25), (0.4, 0.25), (0.5, 0.25)], (2, 4)),
    ],
)
def test_batch_with_an_infeasible_instance_raises(monkeypatch, safe, cuts):
    # A window tolerance of -1 prunes every entry whose threshold is
    # defined.  A cut after a group of mean 0 or before one of mean 1/2 has
    # none, so `safe` keeps such cuts, and a channel without them loses
    # every state (at n = 3, a whole stage before the last).
    monkeypatch.setattr(refine, "PHI_STRICT_TOL", -1.0)
    safe = canonicalize(safe)
    bad = random_channel(instance_rng(51, 14), 6)
    n = len(cuts) + 1
    assert c_optimal_degradation(safe, n)[0].cuts == cuts
    with pytest.raises(RuntimeError) as single:
        c_optimal_degradation(bad, n)
    with pytest.raises(RuntimeError) as batch:
        c_optimal_degradations([safe, bad, safe], n)
    assert str(batch.value) == str(single.value) == "no feasible traceback state"
