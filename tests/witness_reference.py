"""The two degradation tests in their earlier form: the tests' oracle for ``bidmc.blackwell``.

``bidmc.blackwell`` runs the left-curtain coupling over its live particles
alone, compacted as they are spent, and evaluates both Bayes-risk curves on
one breakpoint grid.  These are the versions it replaced: the coupling
finds the live particles afresh for every column, and the risk test builds
one curve object per channel and joins their breakpoint sets.  The two
forms agree bit for bit, witness entries and curve values alike.
"""

import numpy as np

from bidmc import Channel
from bidmc.blackwell import _DUST, WITNESS_TOL


def left_curtain(q: Channel, w: Channel, mu: np.ndarray) -> np.ndarray | None:
    """The coupling of ``blackwell._left_curtain``, live particles found per column."""
    s, p = q.sigmas, w.weights
    rest = q.weights.copy()
    k = np.zeros((q.size, p.size))
    excess = 0.0
    for j in range(p.size):
        live = np.flatnonzero(rest > _DUST)
        edges = np.concatenate(([0.0], np.cumsum(rest[live])))
        moments = np.concatenate(([0.0], np.cumsum(rest[live] * s[live])))
        width = min(p[j], edges[-1])
        starts = np.unique(np.clip(np.concatenate((edges, edges - width)), 0.0, edges[-1] - width))
        f = np.interp(starts + width, edges, moments) - np.interp(starts, edges, moments)
        target = width * mu[j]
        i = min(int(np.searchsorted(f, target)), starts.size - 1)
        u = starts[i]
        if 0 < i and f[i] >= target:
            u = starts[i - 1] + (target - f[i - 1]) * (u - starts[i - 1]) / (f[i] - f[i - 1])
        take = np.maximum(np.minimum(edges[1:], u + width) - np.maximum(edges[:-1], u), 0.0)
        excess += max(s[live] @ take - p[j] * w.sigmas[j], 0.0)
        if excess > WITNESS_TOL:
            return None
        k[live, j] = take
        rest[live] = np.maximum(rest[live] - take, 0.0)
    return k


class Curve:
    """The Bayes-risk curve of a channel as an object: its sigmas, weights
    and breakpoint set, evaluated by calling it."""

    def __init__(self, w: Channel):
        s = w.sigmas
        self.sigmas, self.weights = s.copy(), w.weights.copy()
        self.breakpoints = np.unique(np.concatenate(([0.0, 1.0], s, 1.0 - s)))

    def __call__(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=np.float64)[..., None]
        s = self.sigmas
        e = np.minimum(t * (1.0 - s), (1.0 - t) * s) + np.minimum(t * s, (1.0 - t) * (1.0 - s))
        return e @ self.weights


def risk_grid(w: Channel, q: Channel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of both curves' breakpoints, and e_W and e_Q on it."""
    cw, cq = Curve(w), Curve(q)
    grid = np.union1d(cw.breakpoints, cq.breakpoints)
    return grid, cw(grid), cq(grid)


def risk_dominates(w: Channel, q: Channel, tol: float = WITNESS_TOL) -> bool:
    """The verdict of ``blackwell.risk_dominates``: e_W >= e_Q - tol on the grid."""
    _, ew, eq = risk_grid(w, q)
    return bool(np.all(ew >= eq - tol))
