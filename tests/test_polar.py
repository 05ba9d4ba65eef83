import numpy as np
import pytest

from bidmc import (
    arikan_minus,
    arikan_plus,
    bsc,
    c_optimal_degradation,
    canonicalize,
    capacity,
    construct,
    diamond,
    equivalent,
    instance_rng,
    is_degradation,
    random_channel,
    realize_pplus,
    star,
)
from bidmc.refine import PPlusPlan


def test_star_values():
    assert star(0.1, 0.1) == pytest.approx(0.18, abs=1e-15)
    assert star(0.3, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert star(0.0, 0.37) == pytest.approx(0.37, abs=1e-15)
    assert star(0.2, 0.3) == star(0.3, 0.2)


def test_diamond_values():
    assert diamond(0.1, 0.1) == pytest.approx(0.01 / 0.82, abs=1e-12)
    assert diamond(0.0, 0.3) == 0.0
    assert diamond(0.3, 1.0) == 0.0
    assert diamond(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_arikan_minus_of_bsc():
    assert equivalent(arikan_minus(bsc(0.1)), bsc(0.18))
    assert equivalent(arikan_minus(bsc(0.0)), bsc(0.0))


def test_arikan_plus_of_bsc():
    out = arikan_plus(bsc(0.1))
    expect = canonicalize([(0.01 / 0.82, 0.82), (0.5, 0.18)])
    assert equivalent(out, expect, tol=1e-12)
    assert equivalent(arikan_plus(bsc(0.0)), bsc(0.0))


def test_minus_never_gains_capacity():
    rng = instance_rng(61, 0)
    for _ in range(50):
        w = random_channel(rng, int(rng.integers(1, 7)))
        assert capacity(arikan_minus(w)) <= capacity(w) + 1e-12
        assert capacity(arikan_plus(w)) >= capacity(w) - 1e-12


def test_capacity_conservation():
    w = bsc(0.1)
    total = capacity(arikan_minus(w)) + capacity(arikan_plus(w))
    assert total == pytest.approx(2 * capacity(w), abs=1e-12)
    rng = instance_rng(61, 1)
    for _ in range(200):
        w = random_channel(rng, int(rng.integers(1, 9)))
        total = capacity(arikan_minus(w)) + capacity(arikan_plus(w))
        assert total == pytest.approx(2 * capacity(w), abs=1e-9)


def test_particle_count_bounds():
    rng = instance_rng(61, 2)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        w = random_channel(rng, n)
        assert arikan_minus(w).size <= n * (n + 1) // 2
        assert arikan_plus(w).size <= n * n + 1


def test_transform_monotonicity():
    rng = instance_rng(61, 3)
    for _ in range(15):
        q = random_channel(rng, int(rng.integers(2, 5)))
        n_groups = int(rng.integers(1, q.size))
        cuts = tuple(
            int(c)
            for c in np.sort(
                rng.choice(np.arange(2, q.size + 1), size=n_groups - 1, replace=False)
            )
        )
        w = realize_pplus(PPlusPlan(q, cuts))
        assert is_degradation(w, q)
        assert is_degradation(arikan_minus(w), arikan_minus(q))
        assert is_degradation(arikan_plus(w), arikan_plus(q))


def test_construct_noiseless_base():
    run = construct(bsc(0.0), 3, 4)
    for alpha, rec in run.records.items():
        assert rec.clr == 0.0
        assert rec.quantized.size == 1


def test_construct_shapes_and_flags():
    rng = instance_rng(61, 4)
    w = random_channel(rng, 4)
    run = construct(w, 4, 4)
    assert set(len(a) for a in run.records) == {0, 1, 2, 3, 4}
    for alpha, rec in run.records.items():
        assert rec.quantized.size <= 4
        assert 0.0 <= rec.clr <= 1.0
        if rec.exact is not None:
            assert rec.exact_reference
    # Depth-4 branches outgrow the exact-size guard; their records fall back
    # to the transform of the quantized parent and are flagged.
    assert any(not rec.exact_reference for rec in run.records.values())


def test_construct_branch_clr_statistics():
    # Loose bands around the reported per-branch means for 4-particle bases
    # (the ensemble behind the reference table is unspecified, so these are
    # order-of-magnitude regressions only).
    import numpy as np

    clr0, clr1, clr111 = [], [], []
    for i in range(30):
        rng = instance_rng(61, 100 + i)
        w = random_channel(rng, 4)
        run = construct(w, 3, 4)
        clr0.append(run.records["0"].clr)
        clr1.append(run.records["1"].clr)
        clr111.append(run.records["111"].clr)
    assert 0.002 <= np.mean(clr0) <= 0.020  # reference 0.0065
    assert 0.003 <= np.mean(clr1) <= 0.030  # reference 0.0094
    assert 0.006 <= np.mean(clr111) <= 0.055  # reference 0.0184


def test_construct_clr_nonnegative_and_exact_relations():
    rng = instance_rng(61, 5)
    w = random_channel(rng, 3)
    run = construct(w, 2, 3)
    for alpha in ("0", "1", "00", "01", "10", "11"):
        rec = run.records[alpha]
        assert rec.clr >= 0.0
        if rec.exact is not None:
            # The quantized chain is a degradation of the exact channel.
            assert capacity(rec.quantized) <= capacity(rec.exact) + 1e-9


def test_construct_validates_args():
    with pytest.raises(ValueError):
        construct(bsc(0.1), 0, 4)
    with pytest.raises(ValueError):
        construct(bsc(0.1), 1, 1)


@pytest.mark.parametrize(
    "seed, index, n", [(0, 4, 4), (0, 28, 4), (1, 0, 8), (1, 25, 4), (3, 83, 4), (3, 108, 4)]
)
def test_construct_skewed_chains_complete(seed, index, n):
    # Depth-5 chains reach means within 1e-9 of 1/2.  There a window found by
    # bisection can miss every candidate of a stage, a prefix-sum mean can
    # leave split_threshold's domain, and every cut vector of a branch can
    # have a window margin below PHI_STRICT_TOL, so pruning on the
    # conservative side of the tolerance leaves no traceback state.
    run = construct(random_channel(instance_rng(seed, index), n), 5, n)
    for alpha, rec in run.records.items():
        if not alpha:
            continue
        parent = run.records[alpha[:-1]].quantized
        transform = arikan_plus(parent) if alpha[-1] == "1" else arikan_minus(parent)
        if transform.size <= n:
            best = capacity(transform)
        else:
            plan, _ = c_optimal_degradation(transform, n, pruning=False)
            best = capacity(realize_pplus(plan))
        assert capacity(rec.quantized) == pytest.approx(best, abs=1e-9), alpha
