"""Genie-aided SC decoding (``tests/sc_oracle.py``) against the polar
construction: the exact branches it estimates, and the quantized chains
that degrade them.

z and the frame counts were fixed before the first run, from a Bonferroni
bound at a family-wise error rate of 1e-3 over the branches each test
compares, and are not tuned."""

from statistics import NormalDist

import numpy as np
import pytest

from bidmc import construct, error_probability, instance_rng, random_channel

import sc_oracle

_ALPHA = 1e-3
# Every branch of the depth-2 and depth-3 runs, 6 + 14, two-sided.
_Z_EXACT = NormalDist().inv_cdf(1.0 - _ALPHA / (2 * 20))
_FRAMES_EXACT = 100_000
# Every branch of the depth-5 runs of seeds 0 and 1, 2 * 62, one-sided.
_Z_QUANTIZED = NormalDist().inv_cdf(1.0 - _ALPHA / 124)
_FRAMES_QUANTIZED = 20_000


def test_boxplus_is_exact_at_its_edges():
    inf = np.inf
    a = np.array([inf, inf, inf, 0.0, 3.0, -2.0, 40.0])
    b = np.array([inf, -1.5, 0.0, 5.0, 3.0, 1.0, 40.0])
    got = sc_oracle.boxplus(a, b)
    assert got[:4].tolist() == [inf, -1.5, 0.0, 0.0]
    direct = 2.0 * np.arctanh(np.tanh(a[4:6] / 2.0) * np.tanh(b[4:6] / 2.0))
    assert got[4:6] == pytest.approx(direct, rel=1e-12)
    # tanh rounds to 1 at 20; the stable form keeps 40 - ln 2.
    assert got[6] == pytest.approx(40.0 - np.log(2.0), rel=1e-12)


@pytest.mark.parametrize("depth, n", [(2, 4), (3, 8)])
def test_the_estimate_matches_every_exact_reference(depth, n):
    # Perr of each exact branch lies within z standard errors of the
    # estimate, the standard error taken at that Perr.
    base = random_channel(instance_rng(0, 0), 4)
    run = construct(base, depth, n)
    found = sc_oracle.estimate(base, depth, _FRAMES_EXACT, np.random.default_rng(depth))
    compared = 0
    for alpha, (mean, _) in found.items():
        exact = run.records[alpha].exact
        if exact is None:
            continue
        p = error_probability(exact)
        samples = _FRAMES_EXACT * 2 ** (depth - len(alpha))
        assert abs(mean - p) <= _Z_EXACT * np.sqrt(p * (1.0 - p) / samples), (alpha, mean, p)
        compared += 1
    assert compared >= 2**depth


@pytest.mark.parametrize("seed", [0, 1])
def test_no_quantized_chain_beats_its_channel(seed):
    # Each quantized chain degrades its branch's channel, so its Perr is at
    # least the estimate's, up to z standard errors: polar-chain base 0.
    base = random_channel(instance_rng(seed, 0), 4)
    run = construct(base, 5, 4)
    found = sc_oracle.estimate(base, 5, _FRAMES_QUANTIZED, np.random.default_rng(seed))
    scores = sc_oracle.z_scores(run, found)
    assert len(scores) == 62
    assert max(scores.values()) <= _Z_QUANTIZED, max(scores.items(), key=lambda kv: kv[1])
