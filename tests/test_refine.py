import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from bidmc import (
    InvalidPlanError,
    PPlusPlan,
    PStarPlan,
    arikan_minus,
    brute_force_c_optimal,
    bsc,
    c_optimal_degradation,
    canonicalize,
    capacity,
    construct,
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
    refine_cuts,
    split_threshold,
    to_pstar_plan,
    tv_greedy_plan,
)
from bidmc.blackwell import _water_level

import decimal_oracle
import segment_rows
from boundary_shift import _boundary_shift_gain
from channel_helpers import equivalent
from degradation_helpers import pplus_as_pstar

Q3 = canonicalize([(0.1, 0.5), (0.2, 0.3), (0.4, 0.2)])


def phi_direct(e1, e2):
    return math.log((1 - e1) / (1 - e2)) / math.log(((1 - e1) * e2) / ((1 - e2) * e1))


def random_pstar_plan(rng, q, n):
    """Random valid segment plan with n segments over q."""
    m = q.size
    for _ in range(200):
        idx = np.sort(rng.choice(np.arange(1, m + 1), size=n - 1, replace=False))
        splits = []
        for i in idx:
            u = rng.uniform()
            qi = q.particles[i - 1].weight
            if u < 0.25:
                splits.append(0.0)
            elif u < 0.5:
                splits.append(qi)
            else:
                splits.append(float(rng.uniform(0.0, qi)))
        try:
            return PStarPlan(q, tuple(int(i) for i in idx), tuple(splits))
        except InvalidPlanError:
            continue
    raise RuntimeError("could not sample a valid plan")


# ----------------------------------------------------------------------
# split threshold


def test_split_threshold_values():
    assert split_threshold(0.1, 0.3) == pytest.approx(phi_direct(0.1, 0.3), abs=1e-12)
    assert split_threshold(0.1, 0.3) == pytest.approx(0.18616894171033563, abs=1e-9)
    assert split_threshold(0.1, 0.28) == pytest.approx(0.17812112660243823, abs=1e-9)
    assert split_threshold(0.1375, 0.4) == pytest.approx(0.2536477210598514, abs=1e-9)


def test_split_threshold_strictly_inside():
    rng = instance_rng(31, 0)
    for _ in range(10000):
        e1 = float(rng.uniform(1e-9, 0.5 - 2e-9))
        e2 = float(rng.uniform(e1 + 1e-9, 0.5 - 1e-9))
        t = split_threshold(e1, e2)
        assert e1 < t < e2


@pytest.mark.parametrize("eps_l", [5e-324, 1e-310, 3e-309])
def test_threshold_beside_a_subnormal_left_mean_matches_decimal_oracle(eps_l):
    # d / eps_l overflows for the two smaller left means (at eps_r = 0.375)
    # and stays finite for the largest.
    for eps_r in (1e-300, 1e-6, 0.1, 0.375, 0.5 - 1e-9):
        got = split_threshold(eps_l, eps_r)
        want = decimal_oracle.threshold(eps_l, eps_r)
        assert abs(Decimal(got) - want) <= Decimal("1e-14") * want, (eps_l, eps_r, got)
        assert eps_l < got < eps_r


def test_split_threshold_domain_errors():
    for bad in [(0.0, 0.3), (0.1, 0.5), (0.3, 0.1), (0.2, 0.2), (-0.1, 0.2)]:
        with pytest.raises(ValueError):
            split_threshold(*bad)


# ----------------------------------------------------------------------
# plans and realizations


def test_realize_pplus_examples():
    assert equivalent(
        realize_pplus(PPlusPlan(Q3, (2,))), canonicalize([(0.1, 0.5), (0.28, 0.5)])
    )
    assert equivalent(
        realize_pplus(PPlusPlan(Q3, (3,))), canonicalize([(0.1375, 0.8), (0.4, 0.2)])
    )
    assert equivalent(realize_pplus(PPlusPlan(Q3, (2, 3))), Q3)


def test_realize_pstar_examples():
    # Splitting pattern at index 2 with the full weight is the cut at 2.
    plan = PStarPlan(Q3, (2,), (Q3.particles[1].weight,))
    assert equivalent(realize_pstar(plan), canonicalize([(0.1, 0.5), (0.28, 0.5)]))
    # All-zero splits at every index reproduce the identity partition.
    ident = PStarPlan(Q3, (1, 2), (0.0, 0.0))
    assert equivalent(realize_pstar(ident), Q3)


def test_plan_validation_errors():
    with pytest.raises(InvalidPlanError):
        PPlusPlan(Q3, (1,))
    with pytest.raises(InvalidPlanError):
        PPlusPlan(Q3, (2, 2))
    with pytest.raises(InvalidPlanError):
        # Indices must be strictly increasing.
        PStarPlan(Q3, (2, 2), (0.1, 0.2))
    with pytest.raises(InvalidPlanError):
        # Middle segment takes nothing of particle 2 and nothing of 3.
        PStarPlan(Q3, (2, 3), (0.0, Q3.particles[2].weight))
    with pytest.raises(InvalidPlanError, match="index 5"):
        PStarPlan(Q3, (5,), (0.1,))
    with pytest.raises(InvalidPlanError, match="split 0.5"):
        # A split above q_3 = 0.4 is rejected, not rewritten to a cut.
        PStarPlan(canonicalize([(0.1, 0.3), (0.2, 0.3), (0.4, 0.4)]), (3,), (0.5,))
    # Non-integral cuts and indices are rejected, not truncated.
    for bad in (2.9, 2.5, float("nan"), float("inf"), -float("inf"), np.float64(2.9)):
        with pytest.raises(InvalidPlanError, match="not an integer"):
            PPlusPlan(Q3, (bad,))
        with pytest.raises(InvalidPlanError, match="not an integer"):
            PStarPlan(Q3, (bad,), (0.1,))


def test_plan_entries_accept_integral_values():
    # Python ints, numpy ints and integral floats all give the same plan.
    for cut in (2, np.int64(2), np.int32(2), 2.0, np.float64(2.0)):
        plan = PPlusPlan(Q3, (cut,))
        assert plan.cuts == (2,) and type(plan.cuts[0]) is int
        star = PStarPlan(Q3, (cut,), (0.1,))
        assert star.indices == (2,) and type(star.indices[0]) is int


def test_full_split_normalizes_to_cut_form():
    plan = PStarPlan(Q3, (3,), (Q3.particles[2].weight,))
    assert plan.indices == (2,)
    assert plan.splits == (0.0,)


def test_realized_plans_are_p_degradations():
    rng = instance_rng(31, 1)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(3, 9)))
        n = int(rng.integers(2, q.size))
        plan = random_pstar_plan(rng, q, n)
        w = realize_pstar(plan)
        assert abs(error_probability(w) - error_probability(q)) <= 1e-9
        ok, _ = is_p_degradation(w, q)
        assert ok


def test_plan_witness_satisfies_equality():
    rng = instance_rng(31, 2)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(3, 9)))
        n = int(rng.integers(2, q.size))
        plan = random_pstar_plan(rng, q, n)
        wit = plan_witness(plan)
        w = realize_pstar(plan)
        mom = q.sigmas @ wit.entries
        assert np.allclose(mom, w.weights * w.sigmas, atol=1e-9)
        assert np.allclose(wit.entries.sum(axis=1), q.weights, atol=1e-12)


# Weights at or below _MASS_TOL at a group's end: the segment form of some
# cut plans of this channel drops them and rejects the group as empty.
TINY_WEIGHTS = canonicalize([(0.1, 0.5), (0.2, 1e-20), (0.3, 0.5), (0.4, 1e-300)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cut_plan_witness_routes_each_particle_to_its_group(n):
    q = TINY_WEIGHTS
    for cuts in itertools.combinations(range(2, q.size + 1), n - 1):
        plan = PPlusPlan(q, cuts)
        wit = plan_witness(plan)
        group = np.repeat(np.arange(n), [b - a for a, b in plan.bounds()])
        expect = np.zeros((q.size, n))
        expect[np.arange(q.size), group] = q.weights
        assert wit.entries.tobytes() == expect.tobytes(), cuts
        assert np.allclose(wit.col_pattern, plan.group_stats()[0], rtol=1e-15, atol=0.0), cuts


def test_cut_plan_witness_equals_its_segment_form():
    rng = instance_rng(31, 13)
    for _ in range(200):
        q = random_channel(rng, int(rng.integers(2, 12)))
        n = int(rng.integers(2, q.size + 1))
        cuts = tuple(int(c) for c in np.sort(rng.choice(np.arange(2, q.size + 1), size=n - 1, replace=False)))
        plan = PPlusPlan(q, cuts)
        segment = plan_witness(pplus_as_pstar(plan))
        got = plan_witness(plan)
        assert got.entries.tobytes() == segment.entries.tobytes(), cuts
        assert got.col_pattern.tobytes() == segment.col_pattern.tobytes(), cuts


# ----------------------------------------------------------------------
# canonicalization into a segment plan


def test_to_pstar_plan_roundtrip_on_realized_plan():
    rng = instance_rng(31, 5)
    for _ in range(20):
        q = random_channel(rng, int(rng.integers(3, 8)))
        n = int(rng.integers(2, q.size))
        plan = random_pstar_plan(rng, q, n)
        w = realize_pstar(plan)
        back = to_pstar_plan(w, q)
        assert equivalent(realize_pstar(back), w, tol=1e-9)


def test_to_pstar_plan_lifts_mean_degradation():
    # W has one particle, so the plan keeps its one slice: Q3 whole.
    w = mean_degradation(Q3)
    plan = to_pstar_plan(w, Q3)
    assert plan.indices == ()
    w1 = realize_pstar(plan)
    assert find_degradation_witness(w, w1) is not None
    ok, _ = is_p_degradation(w1, Q3)
    assert ok


def test_to_pstar_plan_sandwich_and_structure():
    rng = instance_rng(31, 6)
    for trial in range(300):
        q = random_channel(rng, int(rng.integers(3, 9)))
        n = int(rng.integers(2, q.size + 1))
        # Random degradation: extra noise on a random routed witness.
        k = np.zeros((q.size, n))
        for i, p in enumerate(q.particles):
            k[i] = rng.dirichlet(np.ones(n)) * p.weight
        cols = k.sum(axis=0)
        means = (q.sigmas @ k) / cols
        t = rng.uniform(0.0, 0.8, size=n)
        eps = means + t * (0.5 - means)
        w = canonicalize(list(zip(eps.tolist(), cols.tolist())))
        plan = to_pstar_plan(w, q)
        w1 = realize_pstar(plan)
        # Sandwich: W <= W1 and W1 is a minimum-error degradation of Q.
        assert find_degradation_witness(w, w1) is not None
        ok, _ = is_p_degradation(w1, q)
        assert ok
        # Segment-plan structure: first and last source particles are owned
        # fully by the outer segments.
        masses, _ = plan.segment_stats()
        assert masses[0] >= q.particles[0].weight - 1e-12
        assert masses[-1] >= q.particles[-1].weight - 1e-12


def test_to_pstar_plan_slices_inside_a_particle_take_it_whole():
    # Q's quantile line cut at W's cumulative weights 0.2 and 0.6: slice 1
    # lies inside particle 1, so it takes particle 1 whole; slice 2 is then
    # left inside particle 2 and takes it whole; slice 3 keeps particle 3.
    w = canonicalize([(0.1, 0.2), (0.15, 0.4), (0.275, 0.4)])
    plan = to_pstar_plan(w, Q3)
    assert (plan.indices, plan.splits) == ((1, 2), (0.0, 0.0))
    assert equivalent(realize_pstar(plan), Q3)
    # Two slices inside particle 1 merge into one segment owning it, so the
    # slices give 2 segments, one below the floor of 3; the mass-balanced
    # split of the heavier segment, particles 2 and 3, adds the third.
    w = canonicalize([(0.1, 0.1), (0.12, 0.1), (0.25, 0.8)])
    plan = to_pstar_plan(w, Q3)
    assert (plan.indices, plan.splits) == ((1, 2), (0.0, 0.0))


def test_to_pstar_plan_slices_inside_a_particle_lighter_than_the_tolerance():
    # Slice 2 holds 1.4e-14 of particle 2, which weighs 1.8e-13, less than
    # _OWN_TOL: a slice inside it still takes it whole, so the plan owns the
    # particle in a segment of its own.
    w = canonicalize([(0.0, 4.99999927e-01), (0.25, 1.40266551e-14), (0.5, 5.00000073e-01)])
    q = canonicalize([(0.0, 4.99999927e-01), (0.25, 1.79294313e-13), (0.5, 5.00000073e-01)])
    assert find_degradation_witness(w, q) is not None
    plan = to_pstar_plan(w, q)
    assert (plan.indices, plan.splits) == ((1, 2), (0.0, 0.0))
    assert equivalent(realize_pstar(plan), q)


def test_to_pstar_plan_rejects_non_degradation():
    from bidmc import DegradationOrderError

    with pytest.raises(DegradationOrderError):
        to_pstar_plan(bsc(0.05), Q3)
    # Perr(W) = 0.25 >= Perr(Q3) = 0.19, so the water level exists, but W
    # has mass below Q3's least crossover and the coupling fails.
    w = canonicalize([(0.05, 0.5), (0.45, 0.5)])
    assert _water_level(w, error_probability(Q3)) is not None
    assert find_degradation_witness(w, Q3) is None
    with pytest.raises(DegradationOrderError):
        to_pstar_plan(w, Q3)


# ----------------------------------------------------------------------
# cut refinement and the window test


def test_is_c_degradation_examples():
    assert is_c_degradation(PPlusPlan(Q3, (2,)))
    assert is_c_degradation(PPlusPlan(Q3, (3,)))


def test_boundary_cuts_pass_every_window_test():
    # A left group of mean 0 or a right group of mean 1/2 puts the threshold
    # outside its domain, so the cut beside it never fails, moves or prunes.
    # A left group of mean 0 is particle 1 alone, whose cut cannot move
    # left; beside a right group of mean exactly 1/2 a move can raise
    # capacity, and the window rule does not see it (ROADMAP item 7).
    q = canonicalize([(0.0, 0.3), (0.1, 0.2), (0.3, 0.2), (0.5, 0.3)])
    plan = PPlusPlan(q, (2, 4))
    assert is_c_degradation(plan)
    assert refine_cuts(plan).cuts == (2, 4)
    assert [p.cuts for p in enumerate_c_degradations(q, 3)] == [(2, 3), (2, 4), (3, 4)]
    assert c_optimal_degradation(q, 3)[0].cuts == brute_force_c_optimal(q, 3)[0].cuts == (2, 3)


def test_refine_cuts_fixpoint_unchanged():
    plan = PPlusPlan(Q3, (3,))
    assert refine_cuts(plan).cuts == (3,)


def test_refine_cuts_stops_at_an_oscillation():
    # The minus transform of branch 0000's quantized channel (m = 10): the
    # greedy plan's last cut fails its window on the low side and the plan
    # one cut to the left fails on the high side, each pointing at the
    # other.  The guard stops at the plan before the move that repeats.
    run = construct(random_channel(instance_rng(0, 4), 4), 5, 4)
    q = arikan_minus(run.records["0000"].quantized)
    plan = tv_greedy_plan(q, 4)
    assert q.size == 10 and plan.cuts == (3, 6, 9)
    refined = refine_cuts(plan)
    assert refined.cuts == (3, 6, 8)
    assert not is_c_degradation(plan) and not is_c_degradation(refined)


def test_refine_cuts_improves_failing_plan():
    rng = instance_rng(31, 7)
    improved = 0
    for _ in range(200):
        q = random_channel(rng, int(rng.integers(4, 10)))
        n = int(rng.integers(2, min(q.size, 5)))
        cuts = tuple(
            int(c)
            for c in np.sort(
                rng.choice(np.arange(2, q.size + 1), size=n - 1, replace=False)
            )
        )
        plan = PPlusPlan(q, cuts)
        refined = refine_cuts(plan)
        before = capacity(realize_pplus(plan))
        after = capacity(realize_pplus(refined))
        assert after >= before - 1e-12
        assert is_c_degradation(refined)
        if not is_c_degradation(plan):
            assert after > before
            improved += 1
    assert improved > 20


def test_failing_window_is_strictly_improvable():
    rng = instance_rng(31, 8)
    found = 0
    for _ in range(300):
        q = random_channel(rng, 6)
        for cuts in [(2,), (3,), (4,), (5,), (2, 4), (3, 5)]:
            plan = PPlusPlan(q, cuts)
            if not is_c_degradation(plan):
                refined = refine_cuts(plan)
                assert capacity(realize_pplus(refined)) > capacity(
                    realize_pplus(plan)
                )
                found += 1
        if found >= 50:
            break
    assert found >= 50


# ----------------------------------------------------------------------
# boundary-mass capacity bookkeeping


def test_boundary_shift_gain_direction():
    rng = instance_rng(31, 9)
    for _ in range(1000):
        e1 = float(rng.uniform(0.01, 0.45))
        e2 = float(rng.uniform(e1 + 0.01, 0.49))
        sigma = float(rng.uniform(e1, e2))
        p1 = float(rng.uniform(0.05, 0.6))
        p2 = float(rng.uniform(0.05, 1.0 - p1 - 0.01))
        t = split_threshold(e1, e2)
        b_right = min(1.0, e1 / sigma) if sigma > 0 else 1.0
        b_left = min(1.0, (1 - 2 * e2) / (1 - 2 * sigma)) if sigma < 0.5 else 1.0
        if sigma >= t:
            xs = np.linspace(0.0, 0.999 * p1 * b_right, 10)
            gains = _boundary_shift_gain(sigma, e1, p1, e2, p2, xs)
            assert np.all(np.diff(gains) >= -1e-12)
        if sigma <= t:
            xs = np.linspace(-0.999 * p2 * b_left, 0.0, 10)
            gains = _boundary_shift_gain(sigma, e1, p1, e2, p2, xs)
            assert np.all(np.diff(gains) <= 1e-12)


def test_threshold_saddle_both_sides_improve():
    # Engineer sigma exactly at the threshold: moving the boundary mass
    # either way must weakly increase the two-segment capacity.
    rng = instance_rng(31, 10)
    for _ in range(50):
        e1 = float(rng.uniform(0.05, 0.3))
        e2 = float(rng.uniform(e1 + 0.05, 0.45))
        sigma = split_threshold(e1, e2)
        p1, p2 = 0.4, 0.4
        base = _boundary_shift_gain(sigma, e1, p1, e2, p2, 0.0)
        span_r = 0.9 * p1 * min(1.0, e1 / sigma)
        span_l = 0.9 * p2 * min(1.0, (1 - 2 * e2) / (1 - 2 * sigma))
        assert _boundary_shift_gain(sigma, e1, p1, e2, p2, span_r) >= base - 1e-12
        assert _boundary_shift_gain(sigma, e1, p1, e2, p2, -span_l) >= base - 1e-12


# ----------------------------------------------------------------------
# no upgrade by small plan adjustments


def adjusted_plans(plan, positions, grid=(0.0, 1 / 3, 2 / 3, 1.0)):
    """All valid plans differing from ``plan`` at the given pattern slots."""
    q = plan.source
    m = q.size
    n_pat = len(plan.indices)
    options = []
    for slot in positions:
        slot_opts = []
        for i in range(1, m + 1):
            qi = q.particles[i - 1].weight
            for frac in grid:
                slot_opts.append((i, frac * qi))
        options.append(slot_opts)
    out = []

    def rec(k, acc):
        if k == len(positions):
            idx = list(plan.indices)
            spl = list(plan.splits)
            for (slot, (i, s)) in zip(positions, acc):
                idx[slot] = i
                spl[slot] = s
            try:
                cand = PStarPlan(q, tuple(idx), tuple(spl))
            except InvalidPlanError:
                return
            out.append(cand)
            return
        for opt in options[k]:
            rec(k + 1, acc + [opt])

    rec(0, [])
    return out


def test_no_strict_upgrade_by_two_pattern_adjustments():
    rng = instance_rng(31, 11)
    checked = 0
    for _ in range(25):
        q = random_channel(rng, int(rng.integers(4, 8)))
        n = int(rng.integers(2, 5))
        if n >= q.size:
            continue
        plan = random_pstar_plan(rng, q, n)
        w = realize_pstar(plan)
        cap_w = capacity(w)
        positions_sets = [(i,) for i in range(n - 1)]
        positions_sets += [
            (i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
        ]
        for positions in positions_sets:
            for cand in adjusted_plans(plan, list(positions)):
                w2 = realize_pstar(cand)
                if capacity(w2) < cap_w - 1e-12:
                    continue  # cannot upgrade w
                if equivalent(w2, w, tol=1e-9):
                    continue
                if find_degradation_witness(w, w2) is not None:
                    assert find_degradation_witness(w2, w) is not None, (
                        f"strict upgrade by adjusting {positions}"
                    )
                checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# the segment layout against the list-of-rows oracle


def _edge_split(rng, qi):
    """A split of 0, the full weight, an interior value or one within _MASS_TOL of an end."""
    options = (0.0, qi, float(rng.uniform(0.0, qi)), 4e-16, -4e-16, qi - 4e-16, qi + 4e-16)
    return options[int(rng.integers(len(options)))]


def _hex_channel(chan):
    return [x.hex() for x in chan.sigmas.tolist()], [x.hex() for x in chan.weights.tolist()]


def test_segment_layout_matches_rows_reference():
    rng = instance_rng(31, 12)
    valid = 0
    for _ in range(800):
        m = int(rng.integers(3, 33))
        q = random_channel(rng, m)
        n = int(rng.integers(2, min(m, 8) + 1))
        idx = tuple(int(i) for i in np.sort(rng.choice(np.arange(1, m + 1), size=n - 1, replace=False)))
        spl = tuple(_edge_split(rng, float(q.weights[i - 1])) for i in idx)
        try:
            indices, splits = segment_rows.canonical_plan(q, idx, spl)
        except InvalidPlanError:
            with pytest.raises(InvalidPlanError):
                PStarPlan(q, idx, spl)
            continue
        plan = PStarPlan(q, idx, spl)
        assert plan.indices == indices
        assert [s.hex() for s in plan.splits] == [s.hex() for s in splits]
        got, expect = plan.segment_stats(), segment_rows.segment_stats(q, indices, splits)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]
        assert _hex_channel(realize_pstar(plan)) == _hex_channel(segment_rows.realize_pstar(q, indices, splits))
        assert plan_witness(plan).entries.tobytes() == segment_rows.plan_witness(q, indices, splits).entries.tobytes()
        valid += 1
    assert valid >= 300, valid


def _criterion_07_pair(rng, kind, m, n):
    """A (W, Q) pair of one of criterion 07's kinds."""
    q = random_channel(rng, m)
    if kind == "random":
        return random_channel(rng, n), q
    k = np.array([rng.dirichlet(np.ones(n)) * p for p in q.weights.tolist()])
    cols = k.sum(axis=0)
    means = (q.sigmas @ k) / cols
    if kind == "upgraded":
        eps = np.maximum(means - 0.01, 0.0)
    else:
        t = rng.uniform(0.0, 1.0 if kind == "degraded" else 0.02, size=n)
        eps = means + t * (0.5 - means)
    return canonicalize(list(zip(eps.tolist(), cols.tolist()))), q


@pytest.mark.parametrize("m, n", [(6, 3), (32, 8)])
def test_to_pstar_plan_matches_rows_reference(m, n):
    kinds = ("random", "degraded", "slightly-degraded", "upgraded")
    lone = split = checked = 0
    for i in range(640):
        w, q = _criterion_07_pair(instance_rng(107, i), kinds[i % 4], m, n)
        if find_degradation_witness(w, q) is None:
            continue
        # The lone-particle rule fired iff it merged some particle's entries.
        edges = np.concatenate(([0.0], np.cumsum(q.weights)))
        cuts = np.concatenate(([0.0], np.cumsum(w.weights)[:-1], edges[-1:]))
        take = np.minimum(edges[1:, None], cuts[None, 1:]) - np.maximum(edges[:-1, None], cuts[None, :-1])
        slices = segment_rows._quantile_segments(q, w.weights)
        lone += sum(map(len, slices)) < np.count_nonzero(take > 1e-15)
        plan = to_pstar_plan(w, q)
        indices, splits = segment_rows.to_pstar_plan(w, q)
        assert plan.indices == indices
        assert [s.hex() for s in plan.splits] == [s.hex() for s in splits]
        split += len(slices) < min(w.size, m)
        checked += 1
    assert lone >= 100 and split >= 10 and checked >= 380, (lone, split, checked)


def test_to_pstar_plan_segment_count_is_a_floor():
    # The floor is min(W's size, Q's size).  The slices of a 3-particle W
    # give 3 segments, and the floor is 3.
    w = canonicalize([(0.12, 0.4), (0.25, 0.3), (0.4, 0.3)])
    assert find_degradation_witness(w, Q3) is not None
    assert len(to_pstar_plan(w, Q3).indices) + 1 == 3
    # A 4-particle W's floor is Q3's size: its first two slices lie inside
    # particle 1 and take it whole, and nothing is split.
    w = canonicalize([(0.1, 0.25), (0.11, 0.25), (0.2, 0.3), (0.4, 0.2)])
    assert find_degradation_witness(w, Q3) is not None
    plan = to_pstar_plan(w, Q3)
    assert (plan.indices, plan.splits) == ((1, 2), (0.0, 0.0))
