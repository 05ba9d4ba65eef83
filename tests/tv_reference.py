"""The Tal-Vardy path's two steps in their earlier form: the tests' oracle
for ``refine.refine_cuts`` and the band of ``search._segments``.

``refine_cuts`` now re-sums only the two groups beside each move and
re-tests only the windows of the cuts beside it, and ``_segments`` sums
every group through one strided view and lets ``channel._capacity_term``
write straight into the band where the mask holds.  These are the
versions they replaced: a full rescan of every group and window on each
pass, and a band filled from the entries gathered over the mask, with the
groups' statistics summed here by a running sum of their own.  The two
forms agree bit for bit.
"""

import numpy as np

from bidmc import PPlusPlan, binary_entropy
from bidmc.refine import _window


def refine_cuts(plan: PPlusPlan) -> tuple[PPlusPlan, int]:
    """``refine.refine_cuts`` by full rescans, with the number of moves it
    made: the plan it stops at is that many moves from ``plan``."""
    s = plan.source.sigmas
    cuts = list(plan.cuts)
    seen = {tuple(cuts)}
    for moves in range(100000):
        cur = PPlusPlan(plan.source, tuple(cuts))
        _, means = cur.group_stats()
        k = np.asarray(cuts, dtype=np.int64)
        edges = np.concatenate([[1], k, [plan.source.size + 1]])
        left, right = _window(means[:-1], means[1:], s[k - 2], s[k - 1])
        right &= k + 1 < edges[2:]
        left &= k - 1 > edges[:-2]
        move = np.flatnonzero(right | left)
        if move.size == 0:
            return cur, moves
        j = int(move[0])
        cuts[j] += 1 if right[j] else -1
        key = tuple(cuts)
        if key in seen:
            return cur, moves
        seen.add(key)
    raise RuntimeError("cut refinement did not terminate")


def capacity_term(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``channel._capacity_term`` over 1-d arrays, split near and far on
    the gathered entries."""
    out = np.empty(sigma.shape)
    far = sigma < 0.25
    near = ~far
    xn = x[near]
    out[near] = (2.0 * xn * np.arctanh(xn) + np.log1p(-xn * xn)) / (2.0 * np.log(2.0))
    out[far] = 1.0 - binary_entropy(sigma[far])
    return out


def band(weights: np.ndarray, sigmas: np.ndarray, sizes: np.ndarray, depth: int) -> np.ndarray:
    """The band of ``search._segments`` over a stack: each group's mass,
    moment and x = 1 - 2 sigma summed forward, one particle more per
    depth, and the capacity terms gathered over the groups inside each
    member's ``sizes``."""
    width = weights.shape[-1]
    terms = np.zeros((3,) + weights.shape[:-1] + (width + depth - 1,))
    terms[..., :width] = weights, weights * sigmas, weights * (1.0 - 2.0 * sigmas)
    sums = np.empty((depth,) + terms.shape[:-1] + (width,))
    acc = np.zeros(terms.shape[:-1] + (width,))
    for d in range(depth):
        acc = acc + terms[..., d : d + width]
        sums[d] = acc
    mass, moment, bias = np.moveaxis(sums, 0, -2)
    with np.errstate(invalid="ignore"):
        mean, x = moment / mass, bias / mass
    mean[..., 0, :], x[..., 0, :] = sigmas, 1.0 - 2.0 * sigmas
    inside = np.arange(width) < sizes[:, None, None] - np.arange(depth)[:, None]
    out = np.full(mass.shape, np.nan)
    out[inside] = mass[inside] * capacity_term(mean[inside], x[inside])
    return out
