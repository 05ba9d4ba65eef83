"""Depth-first C-degradation enumeration: the tests' oracle for ``bidmc.search``.

``search.enumerate_c_degradations`` walks the cut prefixes a level at a
time, in chunks, with one window test per chunk.  This is the recursive
search it replaced, kept as it was: group j starts at a particle, each
candidate last particle fixes its mean and, from group 2 on, the window
test of the cut before it, one vectorized test per node, and a node's
longer groups are skipped once the threshold has passed the upper sigma.
The walk must list the same cut vectors in the same order.
"""

import numpy as np

from bidmc.refine import PHI_STRICT_TOL, _segment_table, _threshold


def c_degradation_cuts(q, n):
    """Cut vectors of all plans passing every threshold-window test, in
    cut order."""
    m = q.size
    s = q.sigmas
    _, means, _ = _segment_table(q.weights, s, m - n + 1, 0)
    out = []
    cuts = []

    def rec(j, start, eps_prev):
        # Group j starts at particle `start`; each candidate last particle
        # fixes its mean and, from group 2 on, the window test of cut `start`.
        ends = np.arange(start, m - n + j + 1)
        eps = means[ends - start, start - 1]
        keep = np.ones(ends.size, dtype=bool)
        if j > 1:
            t = _threshold(eps_prev, eps)
            # Once the threshold reaches the upper sigma, no larger group passes.
            past = np.logical_or.accumulate(s[start - 1] - t <= PHI_STRICT_TOL)
            keep = ~(past | (t - s[start - 2] <= PHI_STRICT_TOL))
        if j == n - 1:
            # The last group, particles end+1..m, fixes the last cut's test.
            t = _threshold(eps, means[m - 1 - ends, ends])
            keep &= ~((t - s[ends - 1] <= PHI_STRICT_TOL) | (s[ends] - t <= PHI_STRICT_TOL))
            out.extend((*cuts, end + 1) for end in ends[keep].tolist())
            return
        for end, e in zip(ends[keep].tolist(), eps[keep].tolist()):
            cuts.append(end + 1)
            rec(j + 1, end + 1, e)
            cuts.pop()

    rec(1, 1, 0.0)
    return out
