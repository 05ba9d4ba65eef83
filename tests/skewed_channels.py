"""Channels like iterated polar transforms: a hypothesis strategy and a
seeded numpy set drawn in the same bands."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from bidmc import canonicalize


@st.composite
def skewed_channels(draw):
    """(channel, n) pairs: masses down to about 1e-18, crossovers within
    1e-12 of 0 and of 1/2, 1/2 itself included, and more than n particles."""
    n = draw(st.integers(2, 6))
    size = draw(st.integers(n + 1, 16))
    sigma = st.one_of(
        st.floats(0.0, 1e-12),
        st.floats(0.5 - 1e-12, 0.5),
        st.floats(0.0, 0.5),
    )
    weight = st.one_of(st.floats(1e-18, 1e-12), st.floats(1e-9, 1e-6), st.floats(1e-3, 1.0))
    sigmas = draw(st.lists(sigma, min_size=size, max_size=size))
    weights = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    q = canonicalize(np.column_stack((sigmas, weights / weights.sum())))
    assume(q.size > n)
    return q, n


def seeded_skewed_channels(seed: int, count: int) -> list:
    """``count`` channels from a numpy generator seeded with ``seed``, in the
    bands of ``skewed_channels``: 3 to 16 particles, each crossover uniform
    in [0, 1e-12], [1/2 - 1e-12, 1/2] or [0, 1/2] and each weight
    log-uniform in [1e-18, 1e-12], [1e-9, 1e-6] or [1e-3, 1] before the
    weights are normalized.  The set depends on the seed and count alone,
    not on the source of the test that reads it."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(3, 17))
        near = rng.uniform(0.0, 1e-12, (2, size))
        bands = np.stack([near[0], 0.5 - near[1], rng.uniform(0.0, 0.5, size)])
        sigmas = bands[rng.integers(0, 3, size), np.arange(size)]
        lo, hi = np.array([(-18.0, -12.0), (-9.0, -6.0), (-3.0, 0.0)])[rng.integers(0, 3, size)].T
        weights = 10.0 ** rng.uniform(lo, hi)
        out.append(canonicalize(np.column_stack((sigmas, weights / weights.sum()))))
    return out
