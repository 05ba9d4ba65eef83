import numpy as np
import pytest

from bidmc import (
    OneMatrix,
    bayes_risk_curve,
    bsc,
    canonicalize,
    capacity,
    equivalent,
    error_probability,
    find_degradation_witness,
    instance_rng,
    intermediate_output,
    is_degradation,
    is_p_degradation,
    is_pair_p_degradation,
    mean_degradation,
    mix,
    random_channel,
    realize_intermediate,
    risk_dominates,
)

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


def test_bayes_risk_curve_values():
    assert bayes_risk_curve(bsc(0.5))(0.3) == pytest.approx(0.3, abs=1e-12)
    curve0 = bayes_risk_curve(bsc(0.0))
    for theta in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert curve0(theta) == pytest.approx(0.0, abs=1e-12)
    assert bayes_risk_curve(bsc(0.1))(0.5) == pytest.approx(0.1, abs=1e-12)


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
        lp = find_degradation_witness(w, q) is not None
        curve = risk_dominates(w, q)
        assert lp == curve, f"verdicts disagree on trial {trial}"
        agree += 1
    assert agree == 400


def test_degradation_implies_capacity_and_error_ordering():
    rng = instance_rng(21, 2)
    for _ in range(60):
        q = random_channel(rng, int(rng.integers(2, 8)))
        w = random_degradation_of(rng, q, int(rng.integers(1, 6)))
        assert is_degradation(w, q)
        assert capacity(w) <= capacity(q) + 1e-9
        assert error_probability(w) >= error_probability(q) - 1e-9


def test_mutual_degradation_is_equivalence():
    rng = instance_rng(21, 3)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(1, 7)))
        v = canonicalize([(p.sigma, p.weight) for p in q.particles])
        assert is_degradation(q, v) and is_degradation(v, q)
        assert equivalent(q, v)
        w = random_degradation_of(rng, q, int(rng.integers(1, 5)))
        if is_degradation(q, w):
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
        assert is_degradation(mw, mq)
        # Stripping the common component recovers the original verdict.
        assert is_degradation(w, q)


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
    from bidmc.blackwell import _witness_system

    for i, (m, n) in enumerate([(3, 2), (5, 4), (12, 7), (32, 10), (2, 9)]):
        q = random_channel(instance_rng(41, i), m)
        w = random_channel(instance_rng(42, i), n)
        for got, want in zip(_witness_system(w, q, equality), _witness_system_loops(w, q, equality)):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and np.array_equal(got, want)
