import math

import numpy as np
import pytest

from bidmc import (
    InvalidPlanError,
    PPlusPlan,
    PStarPlan,
    brute_force_c_optimal,
    bsc,
    c_optimal_degradation,
    canonicalize,
    capacity,
    enumerate_c_degradations,
    equivalent,
    error_probability,
    improving_moves,
    instance_rng,
    is_c_degradation,
    is_degradation,
    is_p_degradation,
    mean_degradation,
    plan_witness,
    random_channel,
    realize_pplus,
    realize_pstar,
    refine_cuts,
    split_threshold,
    to_pstar_plan,
)
from bidmc.refine import _boundary_shift_gain

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


def test_full_split_normalizes_to_cut_form():
    plan = PStarPlan(Q3, (3,), (Q3.particles[2].weight,))
    assert plan.indices == (2,)
    assert plan.splits == (0.0,)


def test_plan_json_schemas():
    cut_plan = PPlusPlan(Q3, (2, 3))
    assert cut_plan.to_json_dict() == {"cuts": [2, 3]}
    seg_plan = PStarPlan(Q3, (2,), (0.2,))
    d = seg_plan.to_json_dict()
    assert set(d) == {"indices", "splits"}
    assert d["indices"] == [2]
    assert d["splits"] == pytest.approx([0.2])
    again = PStarPlan(Q3, tuple(d["indices"]), tuple(d["splits"]))
    assert equivalent(realize_pstar(again), realize_pstar(seg_plan))


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


# ----------------------------------------------------------------------
# improvement moves


def test_interval_witness_has_no_moves():
    rng = instance_rng(31, 3)
    for _ in range(25):
        q = random_channel(rng, int(rng.integers(3, 9)))
        n = int(rng.integers(2, q.size))
        plan = random_pstar_plan(rng, q, n)
        assert improving_moves(plan_witness(plan), q) == []


def test_crossed_witness_improves():
    q = canonicalize([(0.1, 1 / 3), (0.2, 1 / 3), (0.3, 1 / 3)])
    # Column 1 mixes sigma_1 and sigma_3; column 2 holds sigma_2: crossing.
    k = np.array([[1 / 3, 0.0], [0.0, 1 / 3], [1 / 3, 0.0]])
    from bidmc import OneMatrix

    wit = OneMatrix(k, q.weights.copy(), k.sum(axis=0))
    moves = improving_moves(wit, q)
    assert moves, "expected at least one applicable move"
    w_before = canonicalize(
        [(0.2, 2 / 3), (0.2, 1 / 3)]
    )  # means: col1 = 0.2, col2 = 0.2
    for kind, new_wit in moves:
        cols = new_wit.entries.sum(axis=0)
        means = (q.sigmas @ new_wit.entries) / np.where(cols > 0, cols, 1.0)
        pairs = [(m, c) for m, c in zip(means, cols) if c > 1e-12]
        w_after = canonicalize(pairs)
        assert error_probability(w_after) == pytest.approx(
            error_probability(q), abs=1e-12
        )
        assert capacity(w_after) >= capacity(w_before) - 1e-12
        assert is_degradation(w_before, w_after)


def test_moves_preserve_error_probability():
    rng = instance_rng(31, 4)
    for _ in range(20):
        q = random_channel(rng, int(rng.integers(3, 7)))
        n = int(rng.integers(2, q.size))
        # Random equality witness (P-degradation, not segment structured).
        k = np.zeros((q.size, n))
        for i, p in enumerate(q.particles):
            k[i] = rng.dirichlet(np.ones(n)) * p.weight
        from bidmc import OneMatrix

        wit = OneMatrix(k, q.weights.copy(), k.sum(axis=0))
        for kind, new_wit in improving_moves(wit, q):
            mom_total = float(q.sigmas @ new_wit.entries.sum(axis=1))
            assert mom_total == pytest.approx(error_probability(q), abs=1e-12)


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
    w = mean_degradation(Q3)
    plan = to_pstar_plan(w, Q3, n=2)
    assert plan.n_segments == 2
    w1 = realize_pstar(plan)
    assert is_degradation(w, w1)
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
        assert is_degradation(w, w1)
        ok, _ = is_p_degradation(w1, q)
        assert ok
        # Segment-plan structure: first and last source particles are owned
        # fully by the outer segments.
        masses, _ = plan.segment_stats()
        assert masses[0] >= q.particles[0].weight - 1e-12
        assert masses[-1] >= q.particles[-1].weight - 1e-12


def test_to_pstar_plan_rejects_non_degradation():
    from bidmc import DegradationOrderError

    with pytest.raises(DegradationOrderError):
        to_pstar_plan(bsc(0.05), Q3)


# ----------------------------------------------------------------------
# cut refinement and the window test


def test_is_c_degradation_examples():
    assert is_c_degradation(PPlusPlan(Q3, (2,)))
    assert is_c_degradation(PPlusPlan(Q3, (3,)))


def test_boundary_cuts_pass_every_window_test():
    # A left group of mean 0 or a right group of mean 1/2 puts the threshold
    # outside its domain; such a cut's structure is forced, so it never
    # fails, moves or prunes.
    q = canonicalize([(0.0, 0.3), (0.1, 0.2), (0.3, 0.2), (0.5, 0.3)])
    plan = PPlusPlan(q, (2, 4))
    assert is_c_degradation(plan)
    assert refine_cuts(plan).cuts == (2, 4)
    assert [p.cuts for p in enumerate_c_degradations(q, 3)] == [(2, 3), (2, 4), (3, 4)]
    assert c_optimal_degradation(q, 3)[0].cuts == brute_force_c_optimal(q, 3)[0].cuts == (2, 3)


def test_refine_cuts_fixpoint_unchanged():
    plan = PPlusPlan(Q3, (3,))
    assert refine_cuts(plan).cuts == (3,)


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
                if is_degradation(w, w2):
                    assert is_degradation(w2, w), (
                        f"strict upgrade by adjusting {positions}"
                    )
                checked += 1
    assert checked > 0
