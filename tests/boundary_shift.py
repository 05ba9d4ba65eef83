"""Capacity bookkeeping for boundary-mass moves between adjacent segments.

A segment of mass p and mean e that absorbs mass x at crossover sigma
contributes (p + x) * (1 - h((p e + x sigma) / (p + x))) to capacity.  The
tests use it to check the sign rules behind ``split_threshold``.
"""

import numpy as np

from bidmc.channel import _capacity_term


def _segment_term(sigma: float, eps: float, p: float, x) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    mass = p + x
    mean = (p * eps + x * sigma) / mass
    out = mass * _capacity_term(mean, 1.0 - 2.0 * mean)
    return float(out) if out.ndim == 0 else out


def _boundary_shift_gain(
    sigma: float, eps1: float, p1: float, eps2: float, p2: float, x
) -> np.ndarray | float:
    """Total capacity of two adjacent segments after shifting boundary mass.

    Mass x >= 0 at crossover sigma moves from the left segment (mean eps1,
    mass p1) into the right one (mean eps2, mass p2); x < 0 moves the other
    way.  Increasing on x >= 0 when sigma >= split_threshold(eps1, eps2),
    decreasing on x <= 0 when sigma <= split_threshold(eps1, eps2).
    """
    x = np.asarray(x, dtype=np.float64)
    return _segment_term(sigma, eps1, p1, -x) + _segment_term(sigma, eps2, p2, x)
