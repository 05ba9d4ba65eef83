"""The (w, q) pairs of acceptance criterion 07 and of the witness-check benchmark."""

import numpy as np

from bidmc import canonicalize, instance_rng, random_channel


def criterion_07_pairs():
    """The (w, q) pairs of acceptance criterion 07, in its order."""
    for i in range(1000):
        rng = instance_rng(107, i)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        q = random_channel(rng, m)
        if i % 3 == 0:
            yield random_channel(rng, n), q
            continue
        k = np.zeros((m, n))
        for r, p in enumerate(q.particles):
            k[r] = rng.dirichlet(np.ones(n)) * p.weight
        cols = k.sum(axis=0)
        means = (q.sigmas @ k) / cols
        t = rng.uniform(0.0, 1.0, size=n) if i % 3 == 1 else rng.uniform(0.0, 0.02, size=n)
        eps = means + t * (0.5 - means)
        if i % 3 == 2 and rng.uniform() < 0.5:
            eps = np.maximum(means - 0.01, 0.0)
        yield canonicalize(list(zip(eps.tolist(), cols.tolist()))), q


# The benchmark's kinds: random, degraded, slightly degraded and slightly
# upgraded pairs, cycled.
_WITNESS_KINDS = (
    "random", "upgraded", "slightly-degraded", "upgraded",
    "random", "degraded", "upgraded", "upgraded",
)


def witness_check_pairs(seed):
    """The 760 (w, q) inputs of the benchmark's witness-check workload
    (m = 32, n = 8), in its order."""
    for i in range(760):
        rng = instance_rng(seed, i)
        q = random_channel(rng, 32)
        kind = _WITNESS_KINDS[i % len(_WITNESS_KINDS)]
        if kind == "random":
            yield random_channel(rng, 8), q
            continue
        k = np.zeros((32, 8))
        for r, p in enumerate(q.particles):
            k[r] = rng.dirichlet(np.ones(8)) * p.weight
        cols = k.sum(axis=0)
        means = (q.sigmas @ k) / cols
        if kind == "upgraded":
            eps = np.maximum(means - 0.01, 0.0)
        else:
            t = rng.uniform(0.0, 1.0 if kind == "degraded" else 0.02, size=8)
            eps = means + t * (0.5 - means)
        yield canonicalize(list(zip(eps.tolist(), cols.tolist()))), q
