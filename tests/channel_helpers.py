"""Two channel helpers that only the tests use: ``mix``, the random switching
channel that builds test mixtures from channels, and ``equivalent``, equality
of canonical channels up to a tolerance.  Both were ``bidmc.channel``
functions and are kept as they were.
"""

from typing import Sequence

import numpy as np

from bidmc import Channel, InvalidDistributionError, canonicalize
from bidmc.channel import MERGE_TOL, WEIGHT_SUM_INPUT_TOL


def mix(components: Sequence[tuple[float, Channel]]) -> Channel:
    """Random switching channel: probabilistic mixture of sub-channels.

    ``components`` are (weight, channel) pairs with nonnegative weights
    summing to one; the result's LR-profile is the weighted sum of the
    component profiles.
    """
    if not components:
        raise InvalidDistributionError("empty mixture")
    wsum = 0.0
    sigmas, masses = [], []
    for weight, chan in components:
        if weight < -MERGE_TOL:
            raise InvalidDistributionError(f"negative mixture weight {weight}")
        weight = max(float(weight), 0.0)
        wsum += weight
        sigmas.append(chan.sigmas)
        masses.append(weight * chan.weights)
    if abs(wsum - 1.0) > WEIGHT_SUM_INPUT_TOL:
        raise InvalidDistributionError(f"mixture weights sum to {wsum}, not 1")
    return canonicalize(np.column_stack((np.concatenate(sigmas), np.concatenate(masses))))


def equivalent(w: Channel, v: Channel, tol: float = MERGE_TOL) -> bool:
    """True iff the LR-profiles coincide atomwise within ``tol``.

    Both inputs are canonical, so this reduces to matching particle lists.
    """
    if w.size != v.size:
        return False
    for a, b in zip(w.particles, v.particles):
        if abs(a.sigma - b.sigma) > tol or abs(a.weight - b.weight) > tol:
            return False
    return True
