import numpy as np
import pytest

from bidmc import (
    OneMatrix,
    PStarPlan,
    arikan_minus,
    arikan_plus,
    bayes_risk_curve,
    bsc,
    canonicalize,
    capacity,
    construct,
    error_probability,
    find_degradation_witness,
    instance_rng,
    is_p_degradation,
    mean_degradation,
    random_channel,
    realize_pstar,
    risk_dominates,
    to_pstar_plan,
)

from channel_helpers import equivalent, mix
from degradation_helpers import intermediate_output, is_pair_p_degradation, realize_intermediate
from lp_oracle import lp_witness, witness_system

Q3 = canonicalize([(0.1, 0.5), (0.2, 0.3), (0.4, 0.2)])
Q2 = canonicalize([(0.1, 0.5), (0.3, 0.5)])


def random_degradation_of(rng, q, n):
    """Random channel W <= q with an explicit witness, via random routing."""
    m = q.size
    # Random 1-matrix of pattern (q; *) by splitting each row over n columns.
    k = np.zeros((m, n))
    for i, p in enumerate(q.particles):
        k[i] = rng.dirichlet(np.ones(n)) * p.weight
    cols = k.sum(axis=0)
    means = (q.sigmas @ k) / cols
    # Per-column extra noise keeps it a degradation (not necessarily minimum
    # error): move each mean toward 1/2.
    t = rng.uniform(0.0, 1.0, size=n)
    eps = means + t * (0.5 - means)
    w = canonicalize(list(zip(eps.tolist(), cols.tolist())))
    return w


def test_bsc_vs_mixture_witness():
    assert find_degradation_witness(bsc(0.25), Q2) is not None
    assert find_degradation_witness(bsc(0.05), Q2) is None


def test_reflexive_identity_witness():
    wit = find_degradation_witness(Q3, Q3)
    assert wit is not None
    assert np.allclose(wit.entries, np.diag(Q3.weights))


def test_bsc_degradation_threshold():
    # B(eps) <= Q exactly when eps is at least the weighted sigma mean.
    mean = error_probability(Q2)
    assert find_degradation_witness(bsc(mean), Q2) is not None
    assert find_degradation_witness(bsc(mean - 1e-6), Q2) is None
    assert find_degradation_witness(bsc(0.49), Q2) is not None


def test_is_p_degradation_mean_bsc():
    ok, wit = is_p_degradation(bsc(0.19), Q3)
    assert ok
    assert wit is not None
    assert np.allclose(wit.entries.sum(axis=1), Q3.weights, atol=1e-9)


def test_is_p_degradation_rejects_extra_noise():
    ok, _ = is_p_degradation(bsc(0.25), Q3)
    assert not ok


def test_is_p_degradation_contiguous_grouping():
    w = canonicalize([(0.1375, 0.8), (0.4, 0.2)])
    ok, wit = is_p_degradation(w, Q3)
    assert ok
    # Column moments must match p_j * eps_j exactly.
    mom = Q3.sigmas @ wit.entries
    target = w.weights * w.sigmas
    assert np.allclose(mom, target, atol=1e-9)


def test_mean_degradation_examples():
    assert equivalent(mean_degradation(Q3), bsc(0.19))
    assert equivalent(mean_degradation(bsc(0.3)), bsc(0.3))
    assert equivalent(
        mean_degradation(mix([(0.5, bsc(0.0)), (0.5, bsc(0.5))])), bsc(0.25)
    )


def test_pair_criterion_examples():
    w_in = canonicalize([(0.15, 0.5), (0.25, 0.5)])
    assert is_pair_p_degradation(w_in, Q2)
    w_out = canonicalize([(0.05, 0.5), (0.35, 0.5)])
    assert not is_pair_p_degradation(w_out, Q2)
    with pytest.raises(ValueError):
        is_pair_p_degradation(bsc(0.2), Q2)


def test_pair_criterion_agrees_with_witness_oracle():
    rng = instance_rng(21, 0)
    checked = 0
    while checked < 1000:
        s = np.sort(rng.uniform(0.0, 0.5, size=2))
        e = np.sort(rng.uniform(0.0, 0.5, size=2))
        if s[1] - s[0] < 1e-6 or e[1] - e[0] < 1e-6:
            continue
        qw = float(rng.uniform(0.05, 0.95))
        q = canonicalize([(s[0], 1 - qw), (s[1], qw)])
        if rng.uniform() < 0.5:
            # Force matching means so the interesting clause is exercised.
            target = error_probability(q)
            if not (e[0] < target < e[1]):
                continue
            pw = (target - e[0]) / (e[1] - e[0])
            w = canonicalize([(e[0], 1 - pw), (e[1], pw)])
        else:
            pw = float(rng.uniform(0.05, 0.95))
            w = canonicalize([(e[0], 1 - pw), (e[1], pw)])
        if w.size != 2 or q.size != 2:
            continue
        expected, _ = is_p_degradation(w, q)
        assert is_pair_p_degradation(w, q) == expected
        checked += 1


def test_is_p_degradation_equals_witness_plus_error_match():
    rng = instance_rng(21, 9)
    for trial in range(120):
        q = random_channel(rng, int(rng.integers(2, 7)))
        if trial % 2 == 0:
            w = random_degradation_of(rng, q, int(rng.integers(1, 5)))
        else:
            # Exact minimum-error construction: column means of a routing.
            n = int(rng.integers(1, 5))
            k = np.zeros((q.size, n))
            for i, p in enumerate(q.particles):
                k[i] = rng.dirichlet(np.ones(n)) * p.weight
            cols = k.sum(axis=0)
            means = (q.sigmas @ k) / cols
            w = canonicalize(list(zip(means.tolist(), cols.tolist())))
        expected = (
            find_degradation_witness(w, q) is not None
            and abs(error_probability(w) - error_probability(q)) <= 1e-9
        )
        got, _ = is_p_degradation(w, q)
        assert got == expected


def test_witness_and_p_degradation_on_a_pair_the_simplex_failed():
    # A degraded m = 32, n = 8 pair (random routing, then extra noise per
    # column) whose P* realization broke the simplex: its "feasible" point
    # for the equality system missed Q's row sums by 0.099.
    rng = instance_rng(404, 757)
    q = random_channel(rng, 32)
    k = np.zeros((32, 8))
    for r, p in enumerate(q.particles):
        k[r] = rng.dirichlet(np.ones(8)) * p.weight
    cols = k.sum(axis=0)
    means = (q.sigmas @ k) / cols
    eps = means + rng.uniform(0.0, 1.0, size=8) * (0.5 - means)
    w = canonicalize(list(zip(eps.tolist(), cols.tolist())))
    wit = find_degradation_witness(w, q)
    assert wit is not None
    assert np.all(q.sigmas @ wit.entries <= w.weights * w.sigmas + 1e-9)
    assert is_p_degradation(realize_pstar(to_pstar_plan(w, q)), q)[0]
    # The realization the simplex failed on.
    w1 = realize_pstar(
        PStarPlan(
            q,
            (1, 3, 5, 11, 15, 22, 29),
            (0.0, 0.0, 0.0, 0.0005619295064530402, 0.0, 0.0008107946248345852, 0.0016359039376968396),
        )
    )
    ok, wit = is_p_degradation(w1, q)
    assert ok
    assert np.allclose(q.sigmas @ wit.entries, w1.weights * w1.sigmas, rtol=0.0, atol=1e-9)


def test_bayes_risk_curve_values():
    assert bayes_risk_curve(bsc(0.5))(0.3) == pytest.approx(0.3, abs=1e-12)
    curve0 = bayes_risk_curve(bsc(0.0))
    for theta in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert curve0(theta) == pytest.approx(0.0, abs=1e-12)
    assert bayes_risk_curve(bsc(0.1))(0.5) == pytest.approx(0.1, abs=1e-12)


def test_bayes_risk_curve_breakpoints():
    assert bayes_risk_curve(bsc(0.0)).breakpoints.tolist() == [0.0, 1.0]
    assert bayes_risk_curve(bsc(0.5)).breakpoints.tolist() == [0.0, 0.5, 1.0]
    mixed = canonicalize([(0.0, 0.2), (0.1, 0.3), (0.25, 0.3), (0.5, 0.2)])
    expect = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0 - 0.1, 1.0]
    assert bayes_risk_curve(mixed).breakpoints.tolist() == expect
    rng = instance_rng(52, 0)
    for _ in range(20):
        w = random_channel(rng, int(rng.integers(1, 12)))
        pts = sorted({0.0, 1.0, *w.sigmas.tolist(), *(1.0 - w.sigmas).tolist()})
        assert bayes_risk_curve(w).breakpoints.tolist() == pts


def test_witness_and_risk_curve_agree():
    rng = instance_rng(21, 1)
    agree = 0
    for trial in range(400):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        q = random_channel(rng, m)
        kind = trial % 3
        if kind == 0:
            w = random_channel(rng, n)
        elif kind == 1:
            w = random_degradation_of(rng, q, n)
        else:
            # Near-boundary: slightly denoise a true degradation.
            w0 = random_degradation_of(rng, q, n)
            jitter = 1.0 - float(rng.uniform(0.0, 0.01))
            w = canonicalize([(p.sigma * jitter, p.weight) for p in w0.particles])
        built = find_degradation_witness(w, q) is not None
        curve = risk_dominates(w, q)
        lp = lp_witness(w, q) is not None
        assert built == curve == lp, f"verdicts disagree on trial {trial}"
        agree += 1
    assert agree == 400


@pytest.mark.parametrize("seed", [907, 910])
def test_witness_and_risk_curve_agree_on_polar_chains(seed):
    # Depth-6 polar chains hold skewed channels: capacities from 1e-29 to
    # 1 - 1e-6 and masses down to 1e-16.  The transform of a quantized
    # parent is compared with its quantization, both ways, and with the
    # parent.  A witness is accepted only while its columns' total moment
    # excess stays within the curves' tolerance.
    run = construct(random_channel(instance_rng(seed, 0), 4), 6, 4)
    for alpha, rec in run.records.items():
        if not alpha:
            continue
        parent = run.records[alpha[:-1]].quantized
        exact = (arikan_plus if alpha[-1] == "1" else arikan_minus)(parent)
        for w, q in ((rec.quantized, exact), (exact, rec.quantized), (parent, exact)):
            assert (find_degradation_witness(w, q) is not None) == risk_dominates(w, q), alpha


def test_degradation_implies_capacity_and_error_ordering():
    rng = instance_rng(21, 2)
    for _ in range(60):
        q = random_channel(rng, int(rng.integers(2, 8)))
        w = random_degradation_of(rng, q, int(rng.integers(1, 6)))
        assert find_degradation_witness(w, q) is not None
        assert capacity(w) <= capacity(q) + 1e-9
        assert error_probability(w) >= error_probability(q) - 1e-9


def test_mutual_degradation_is_equivalence():
    rng = instance_rng(21, 3)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(1, 7)))
        v = canonicalize([(p.sigma, p.weight) for p in q.particles])
        assert find_degradation_witness(q, v) is not None and find_degradation_witness(v, q) is not None
        assert equivalent(q, v)
        w = random_degradation_of(rng, q, int(rng.integers(1, 5)))
        if find_degradation_witness(q, w) is not None:
            assert equivalent(w, q)


def test_component_cancellation():
    rng = instance_rng(21, 4)
    for _ in range(30):
        q = random_channel(rng, int(rng.integers(2, 6)))
        w = random_degradation_of(rng, q, int(rng.integers(1, 5)))
        r = random_channel(rng, int(rng.integers(1, 5)))
        lam = float(rng.uniform(0.1, 0.9))
        mw = mix([(lam, r), (1.0 - lam, w)])
        mq = mix([(lam, r), (1.0 - lam, q)])
        # Forward: mixing a common component preserves the order.
        assert find_degradation_witness(mw, mq) is not None
        # Stripping the common component recovers the original verdict.
        assert find_degradation_witness(w, q) is not None


def test_realize_intermediate_identity_and_single_column():
    wit = find_degradation_witness(Q3, Q3)
    real = realize_intermediate(Q3, Q3, wit)
    assert np.allclose(real.column_flip, 0.0, atol=1e-12)

    w = bsc(0.25)
    q = bsc(0.2)
    wit = find_degradation_witness(w, q)
    real = realize_intermediate(w, q, wit)
    assert real.column_flip[0] == pytest.approx((0.25 - 0.2) / 0.6, abs=1e-9)


def test_realize_intermediate_p_degradation_has_zero_flips():
    w = canonicalize([(0.1375, 0.8), (0.4, 0.2)])
    ok, wit = is_p_degradation(w, Q3)
    assert ok
    real = realize_intermediate(w, Q3, wit)
    assert np.allclose(real.column_flip, 0.0, atol=1e-9)


def test_realize_intermediate_reproduces_profile():
    rng = instance_rng(21, 5)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(2, 7)))
        w = random_degradation_of(rng, q, int(rng.integers(1, 5)))
        wit = find_degradation_witness(w, q)
        assert wit is not None
        real = realize_intermediate(w, q, wit)
        out = intermediate_output(q, real)
        assert equivalent(out, w, tol=1e-9)


def test_realize_intermediate_rejects_invalid_witness():
    w = bsc(0.1)
    q = bsc(0.2)
    wit = OneMatrix(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        realize_intermediate(w, q, wit)


def test_witness_json_shape():
    wit = find_degradation_witness(bsc(0.25), Q2)
    d = wit.to_json_dict()
    assert d["rows"] == 2 and d["cols"] == 1
    assert np.allclose(np.array(d["k"]).sum(), 1.0, atol=1e-9)


def _witness_system_loops(w, q, equality):
    # Row-by-row assembly of the witness LP, the reference for the
    # Kronecker-product form.
    m, n = q.size, w.size
    rows_eq, rhs_eq, mom_rows, mom_rhs = [], [], [], []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        rows_eq.append(row)
        rhs_eq.append(q.particles[i].weight)
    for j in range(n):
        row = np.zeros(m * n)
        row[j::n] = 1.0
        rows_eq.append(row)
        rhs_eq.append(w.particles[j].weight)
    for j in range(n):
        row = np.zeros(m * n)
        row[j::n] = q.sigmas
        mom_rows.append(row)
        mom_rhs.append(w.particles[j].weight * w.particles[j].sigma)
    if equality:
        return np.array(rows_eq + mom_rows), np.array(rhs_eq + mom_rhs), None, None
    return np.array(rows_eq), np.array(rhs_eq), np.array(mom_rows), np.array(mom_rhs)


@pytest.mark.parametrize("equality", [False, True])
def test_witness_system_matches_row_loops(equality):
    for i, (m, n) in enumerate([(3, 2), (5, 4), (12, 7), (32, 10), (2, 9)]):
        q = random_channel(instance_rng(41, i), m)
        w = random_channel(instance_rng(42, i), n)
        for got, want in zip(witness_system(w, q, equality), _witness_system_loops(w, q, equality)):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and np.array_equal(got, want)
