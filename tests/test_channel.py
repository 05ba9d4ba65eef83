import math
import warnings

import numpy as np
import pytest

from bidmc import (
    InvalidDistributionError,
    binary_entropy,
    bsc,
    canonicalize,
    capacity,
    capacity_loss_rate,
    error_probability,
    instance_rng,
    lr_functional,
    lr_profile,
    random_channel,
)
from bidmc.channel import MERGE_TOL, _capacity_term

import decimal_oracle
from channel_helpers import equivalent, mix


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
        assert sum(mass for _, mass in prof.atoms) == pytest.approx(1.0, abs=1e-12)
        for eps, mass in prof.atoms:
            mirror = sum(m for e, m in prof.atoms if abs(e - (1.0 - eps)) <= MERGE_TOL)
            assert mirror == pytest.approx(mass, abs=1e-12)


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


def test_capacity_term_matches_decimal_oracle():
    # 2000 points across [0, 1/2] and 2000 approaching 1/2 down to 1e-12.
    sigmas = np.concatenate([np.linspace(0.0, 0.5, 2000), 0.5 - np.logspace(-12, math.log10(0.5), 2000)])
    got = _capacity_term(sigmas, 1.0 - 2.0 * sigmas)
    for sigma, value in zip(sigmas.tolist(), got.tolist()):
        expect = float(decimal_oracle.sigma_capacity_term(sigma))
        assert abs(value - expect) <= 1e-13 * expect, sigma


def test_capacity_near_half():
    # 1 - h(sigma) is far below h's round-off here; 1 - h computed directly gives 0.
    assert capacity(bsc(0.5 - 1e-10)) == pytest.approx(2.885390559254438e-20, rel=1e-13)
    assert capacity(bsc(0.5)) == 0.0


def _entropy_with_two_masks(x):
    # binary_entropy as it was written with a guarded copy of x: the logs
    # see 1/2 outside (0, 1), so no warning can fire.
    x = np.asarray(x, dtype=np.float64)
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)
    h = -(xs * np.log2(xs) + (1.0 - xs) * np.log2(1.0 - xs))
    out = np.where(inner, h, 0.0)
    return float(out) if out.ndim == 0 else out


def test_binary_entropy_keeps_its_bits_and_raises_no_warning():
    sigmas = [0.0, 5e-324, 1e-300, 1e-9, np.nextafter(0.25, 0.0), 0.25, 0.5 - 1e-10, 0.5, math.nan]
    want = _entropy_with_two_masks(np.array(sigmas))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = binary_entropy(np.array(sigmas))
        singles = [binary_entropy(x) for x in sigmas]
    assert got.tobytes() == want.tobytes()
    assert [h.hex() for h in singles] == [_entropy_with_two_masks(x).hex() for x in sigmas]
    assert want[[0, -1]].tolist() == [0.0, 0.0] and want[7] == 1.0
