"""A hypothesis strategy for channels like iterated polar transforms."""

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
