"""Seeded random channel ensembles shared by experiments and tests.

Instance RNGs are counter-based (Philox keyed by master seed and instance
index), so ensemble results are independent of evaluation order and
reproducible across runs and worker counts.

The default channel distribution: crossovers are sorted i.i.d. uniforms on
[0, 1/2], weights a flat Dirichlet.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, canonicalize


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for instance ``index`` of an ensemble with master ``seed``."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_channel(rng: np.random.Generator, m: int) -> Channel:
    """Random canonical channel with exactly m particles."""
    while True:
        sigmas = np.sort(rng.uniform(0.0, 0.5, size=m))
        weights = rng.dirichlet(np.ones(m))
        chan = canonicalize(np.column_stack((sigmas, weights)))
        if chan.size == m:
            return chan

