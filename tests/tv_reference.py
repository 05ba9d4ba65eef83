"""The Tal-Vardy path's two steps in their earlier form: the tests' oracle
for ``refine.refine_cuts`` and ``search._band``.

``refine_cuts`` now re-sums only the two groups beside each move and
re-tests only the windows of the cuts beside it, and ``_band`` lets
``channel._capacity_term`` write straight into the band where the mask
holds.  These are the versions they replaced: a full rescan of every group
and window on each pass, and a band filled from the entries gathered over
the mask.  The two forms agree bit for bit.
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


def band(mass: np.ndarray, mean: np.ndarray, xbar: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``search._band`` from the statistics gathered over ``inside``."""
    out = np.full(mass.shape, np.nan)
    out[inside] = mass[inside] * capacity_term(mean[inside], xbar[inside])
    return out
