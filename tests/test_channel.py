import math

import pytest

from bidmc import (
    InvalidDistributionError,
    bsc,
    canonicalize,
    capacity,
    capacity_loss_rate,
    equivalent,
    error_probability,
    instance_rng,
    lr_functional,
    lr_profile,
    mix,
    random_channel,
)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


def test_canonicalize_sorts():
    chan = canonicalize([(0.3, 0.5), (0.1, 0.5)])
    assert [p.sigma for p in chan.particles] == [0.1, 0.3]
    assert [p.weight for p in chan.particles] == [0.5, 0.5]


def test_canonicalize_merges_equal_sigmas():
    chan = canonicalize([(0.2, 0.4), (0.2, 0.6)])
    assert chan.size == 1
    assert chan.particles[0] == (0.2, 1.0)


def test_canonicalize_reflects_above_half():
    chan = canonicalize([(0.7, 0.5), (0.1, 0.5)])
    assert [p.sigma for p in chan.particles] == pytest.approx([0.1, 0.3])


def test_canonicalize_drops_zero_weight():
    chan = canonicalize([(0.1, 0.0), (0.3, 1.0)])
    assert chan.size == 1
    assert chan.particles[0].sigma == 0.3


def test_canonicalize_rejects_bad_weight_sum():
    with pytest.raises(InvalidDistributionError):
        canonicalize([(0.1, 0.5), (0.2, 0.6)])
    with pytest.raises(InvalidDistributionError):
        canonicalize([(0.1, -0.2), (0.2, 1.2)])


def test_canonicalize_idempotent():
    rng = instance_rng(11, 0)
    for _ in range(50):
        chan = random_channel(rng, int(rng.integers(1, 9)))
        again = canonicalize([(p.sigma, p.weight) for p in chan.particles])
        assert equivalent(chan, again)


def test_capacity_boundary_channels():
    assert capacity(bsc(0.0)) == 1.0
    assert capacity(bsc(0.5)) == 0.0


def test_capacity_erasure_mixture():
    bec = mix([(0.5, bsc(0.0)), (0.5, bsc(0.5))])
    assert capacity(bec) == pytest.approx(0.5, abs=1e-12)


def test_capacity_matches_entropy_formula():
    assert capacity(bsc(0.1)) == pytest.approx(1.0 - h2(0.1), abs=1e-12)
    assert capacity(bsc(0.1)) == pytest.approx(0.5310044064107188, abs=1e-12)


def test_error_probability_examples():
    assert error_probability(bsc(0.2)) == 0.2
    q = canonicalize([(0.1, 0.5), (0.2, 0.3), (0.4, 0.2)])
    assert error_probability(q) == pytest.approx(0.19, abs=1e-15)
    assert error_probability(bsc(0.0)) == 0.0


def test_functional_total_mass_and_identities():
    assert lr_functional(bsc(0.2), lambda e: 1.0) == pytest.approx(1.0, abs=1e-12)
    rng = instance_rng(11, 1)
    for _ in range(25):
        chan = random_channel(rng, int(rng.integers(1, 9)))
        cap = lr_functional(chan, lambda e: 1.0 - h2(e))
        perr = lr_functional(chan, lambda e: min(e, 1.0 - e))
        assert cap == pytest.approx(capacity(chan), abs=1e-12)
        assert perr == pytest.approx(error_probability(chan), abs=1e-12)


def test_mix_identity_and_merge():
    w = canonicalize([(0.1, 0.4), (0.3, 0.6)])
    assert equivalent(mix([(1.0, w)]), w)
    assert equivalent(mix([(0.5, bsc(0.1)), (0.5, bsc(0.1))]), bsc(0.1))


def test_mix_algebra():
    inner = canonicalize([(0.1, 0.5), (0.3, 0.5)])
    out = mix([(0.4, bsc(0.1)), (0.6, inner)])
    expect = canonicalize([(0.1, 0.7), (0.3, 0.3)])
    assert equivalent(out, expect)


def test_mix_rejects_bad_weights():
    with pytest.raises(InvalidDistributionError):
        mix([(0.4, bsc(0.1)), (0.4, bsc(0.2))])


def test_mix_linearity_of_functionals():
    rng = instance_rng(11, 2)
    for _ in range(25):
        a = random_channel(rng, int(rng.integers(1, 7)))
        b = random_channel(rng, int(rng.integers(1, 7)))
        lam = float(rng.uniform(0.05, 0.95))
        m = mix([(lam, a), (1.0 - lam, b)])
        assert capacity(m) == pytest.approx(
            lam * capacity(a) + (1 - lam) * capacity(b), abs=1e-11
        )
        assert error_probability(m) == pytest.approx(
            lam * error_probability(a) + (1 - lam) * error_probability(b), abs=1e-12
        )


def test_capacity_and_error_bounds():
    rng = instance_rng(11, 3)
    for _ in range(100):
        chan = random_channel(rng, int(rng.integers(1, 12)))
        assert 0.0 <= capacity(chan) <= 1.0
        assert 0.0 <= error_probability(chan) <= 0.5


def test_lr_profile_of_bsc():
    prof = lr_profile(bsc(0.1))
    assert prof.atoms == ((0.1, 0.5), (0.9, 0.5))
    prof_half = lr_profile(bsc(0.5))
    assert prof_half.atoms == ((0.5, 1.0),)


def test_lr_profile_of_erasure_mixture():
    prof = lr_profile(mix([(0.5, bsc(0.0)), (0.5, bsc(0.5))]))
    assert prof.atoms == ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))


def test_lr_profile_mass_and_symmetry():
    rng = instance_rng(11, 4)
    for _ in range(50):
        chan = random_channel(rng, int(rng.integers(1, 10)))
        prof = lr_profile(chan)
        assert prof.total_mass() == pytest.approx(1.0, abs=1e-12)
        for eps, mass in prof.atoms:
            assert prof.mass_at(1.0 - eps) == pytest.approx(mass, abs=1e-12)


def test_equivalent_basic():
    assert equivalent(bsc(0.2), bsc(0.2))
    assert not equivalent(bsc(0.2), bsc(0.3))
    bec = mix([(0.5, bsc(0.0)), (0.5, bsc(0.5))])
    assert equivalent(bec, canonicalize([(0.0, 0.5), (0.5, 0.5)]))


def test_equivalent_is_equivalence_relation():
    rng = instance_rng(11, 5)
    chans = [random_channel(rng, int(rng.integers(1, 7))) for _ in range(12)]
    for a in chans:
        assert equivalent(a, a)
        for b in chans:
            assert equivalent(a, b) == equivalent(b, a)
            for c in chans:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)


def test_capacity_loss_rate_clamps_and_handles_zero_capacity():
    assert capacity_loss_rate(0.5, 0.25) == 0.5
    # A degradation computed a round-off above its source loses nothing.
    assert capacity_loss_rate(0.5, 0.5 + 1e-16) == 0.0
    assert capacity_loss_rate(0.0, 0.0) == 0.0
    assert capacity_loss_rate(-1e-18, 0.0) == 0.0
